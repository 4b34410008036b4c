package ec_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/ec"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
)

// chainSum is SumEach's reference: the group's points added one by one
// on a mixed Jacobian chain and converted back alone.
func chainSum(c *ec.Curve, g []ec.Point) ec.Point {
	var acc ec.JacPoint
	for _, p := range g {
		acc = c.JacAddMixed(acc, p)
	}
	return c.FromJac(acc)
}

// twoTorsion is (−1, 0), the point y² = x³ + 1 has over every field:
// it is its own negation and doubles to infinity.
func twoTorsion(c *ec.Curve) ec.Point {
	return ec.Point{X: c.F.FromInt64(-1), Y: c.F.Zero()}
}

// sumGroups returns one call's groups: sizes 0, 1, 2 and odd sizes, a
// repeated point (doubling, also in a later round), a point with its
// negation, the 2-torsion point alone, doubled and beside others, and
// infinity inputs, all of unequal sizes.
func sumGroups(c *ec.Curve, g ec.Point, rng *rand.Rand) [][]ec.Point {
	pt := func() ec.Point { return c.ScalarMul(g, big.NewInt(rng.Int63n(1<<40)+1)) }
	many := func(n int) []ec.Point {
		out := make([]ec.Point, n)
		for i := range out {
			out[i] = pt()
		}
		return out
	}
	p, q, t, inf := pt(), pt(), twoTorsion(c), c.Infinity()
	return [][]ec.Point{
		{},
		{p},
		{p, q},
		{p, p},
		{p, c.Neg(p)},
		{t},
		{t, t},
		{p, t, q},
		{inf},
		{inf, inf},
		{p, inf, q},
		{p, p, p, p},
		{p, c.Neg(p), p, c.Neg(p)},
		{p, q, c.Neg(p), c.Neg(q)},
		{p, p, c.Neg(p), q, inf, t, c.Double(p)},
		many(3),
		many(5),
		many(9),
		many(33),
	}
}

// indexGroups is groups as index lists into one base slice, the form
// SumEachIndex takes: the points of every group in reverse order,
// listed from the front of the base, so that index order and base
// order differ.
func indexGroups(groups [][]ec.Point) ([]ec.Point, [][]int32) {
	var base []ec.Point
	lists := make([][]int32, len(groups))
	for i, g := range groups {
		for k := len(g) - 1; k >= 0; k-- {
			lists[i] = append(lists[i], int32(len(base)))
			base = append(base, g[k])
		}
	}
	return base, lists
}

// scratch is reused by every checkSumEach call, as a prover reuses its
// own across calls of every shape.
var scratch ec.SumScratch

func checkSumEach(t *testing.T, c *ec.Curve, groups [][]ec.Point) {
	t.Helper()
	base, lists := indexGroups(groups)
	sc, vc := c.ScalarRounds(), c.VecRounds()
	paths := map[string][]ec.Point{
		"SumEach":       c.SumEach(groups),
		"affine":        c.SumEachWith(groups, 1),
		"jacobian":      c.SumEachWith(groups, 1<<30),
		"index":         c.SumEachIndex(nil, base, lists),
		"scratch":       slices.Clone(c.SumEachIndex(&scratch, base, lists)),
		"scalar affine": sc.SumEachWith(groups, 1),
		"scalar index":  sc.SumEachIndex(nil, base, lists),
		"vec affine":    vc.SumEachWith(groups, 1),
		"vec index":     slices.Clone(vc.SumEachIndex(&scratch, base, lists)),
	}
	for name, got := range paths {
		if len(got) != len(groups) {
			t.Fatalf("%s: %d sums for %d groups", name, len(got), len(groups))
		}
		for i, g := range groups {
			if want := chainSum(c, g); !got[i].Equal(want) {
				t.Fatalf("%s: group %d (%d points): got %v, want %v", name, i, len(g), got[i], want)
			}
			if !c.IsOnCurve(got[i]) {
				t.Fatalf("%s: group %d: sum is off the curve", name, i)
			}
		}
	}
}

// TestSumEachMatchesJacobianChain checks SumEach, and each of its paths
// forced, against the mixed Jacobian chain at both presets: all groups
// in one call, and every group alone. At default, on a host with the
// 8-lane kernel, the forced affine rounds run once on the kernel and
// once on Field.Mul, and both must give the chain's points, degenerate
// pairs included (P = Q, P = −Q, infinity, (−1, 0) doubled).
func TestSumEachMatchesJacobianChain(t *testing.T) {
	for _, preset := range []string{"toy", "default"} {
		t.Run(preset, func(t *testing.T) {
			pr := pairing.ByName(preset)
			t.Logf("affine rounds on the 8-lane kernel: %v", pr.F.HasVec())
			groups := sumGroups(pr.C, pr.G, rand.New(rand.NewSource(42)))
			checkSumEach(t, pr.C, groups)
			for _, g := range groups {
				checkSumEach(t, pr.C, [][]ec.Point{g})
			}
			// More points than one wave holds, in groups of every size
			// from 1 to 40 points: groups wait, retire and enter in the
			// middle of the rounds.
			rng := rand.New(rand.NewSource(43))
			var waves [][]ec.Point
			for i := range 40 {
				g := make([]ec.Point, i+1)
				for k := range g {
					g[k] = groups[len(groups)-1][rng.Intn(33)]
					if k%7 == 3 {
						g[k] = pr.C.Neg(g[k-1])
					}
				}
				waves = append(waves, g)
			}
			checkSumEach(t, pr.C, waves)
			if got := pr.C.SumEach(nil); len(got) != 0 {
				t.Fatalf("SumEach(nil) returned %d sums", len(got))
			}
		})
	}
}

// TestSumEachLeavesInputs checks that the groups are not written.
func TestSumEachLeavesInputs(t *testing.T) {
	pr := pairing.Toy()
	groups := sumGroups(pr.C, pr.G, rand.New(rand.NewSource(7)))
	before := make([][]ec.Point, len(groups))
	for i, g := range groups {
		before[i] = append([]ec.Point(nil), g...)
	}
	pr.C.SumEachWith(groups, 1)
	for i, g := range groups {
		for j := range g {
			if !g[j].Equal(before[i][j]) {
				t.Fatalf("group %d point %d was overwritten", i, j)
			}
		}
	}
}

// FuzzSumEach checks SumEach and its forced paths against the mixed
// Jacobian chain at toy and, when atDefault, at the default preset,
// whose affine rounds run on the 8-lane kernel where the host has it
// (the fuzz log says which). Each input byte either closes the current
// group (0xff) or appends one point of a small pool: multiples of g and
// their negations, the 2-torsion point and infinity, so that repeated
// and opposite points meet in every round.
func FuzzSumEach(f *testing.F) {
	pools := map[bool][]ec.Point{}
	curves := map[bool]*ec.Curve{}
	for _, atDefault := range []bool{false, true} {
		pr := pairing.Toy()
		if atDefault {
			pr = pairing.Default()
			f.Logf("default preset: affine rounds on the 8-lane kernel: %v", pr.F.HasVec())
		}
		c := pr.C
		pool := []ec.Point{c.Infinity(), twoTorsion(c)}
		for k := int64(1); k <= 7; k++ {
			p := c.ScalarMul(pr.G, big.NewInt(k))
			pool = append(pool, p, c.Neg(p))
		}
		pools[atDefault], curves[atDefault] = pool, c
	}
	for _, atDefault := range []bool{false, true} {
		f.Add(atDefault, []byte{2, 2, 0xff, 2, 3})
		f.Add(atDefault, []byte{1, 1, 0, 4, 0xff, 0xff, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 2, 3, 2})
		f.Add(atDefault, []byte{})
	}
	f.Fuzz(func(t *testing.T, atDefault bool, data []byte) {
		pool := pools[atDefault]
		groups := [][]ec.Point{nil}
		for _, b := range data {
			if b == 0xff {
				groups = append(groups, nil)
				continue
			}
			last := len(groups) - 1
			groups[last] = append(groups[last], pool[int(b)%len(pool)])
		}
		checkSumEach(t, curves[atDefault], groups)
	})
}

// BenchmarkSumEach measures the crossover affineRound estimates at the
// default preset, summing each shape with every round affine (affine),
// with the mixed Jacobian chains from the start (jacobian), as SumEach
// chooses, and as SumEachIndex chooses on a reused scratch set: k
// groups of three points, whose first round has k additions and whose
// second is the last, and one group of n points, whose rounds halve.
func BenchmarkSumEach(b *testing.B) {
	pr := pairing.Default()
	c := pr.C
	rng := rand.New(rand.NewSource(1))
	shape := func(groups, size int) [][]ec.Point {
		out := make([][]ec.Point, groups)
		for i := range out {
			for range size {
				out[i] = append(out[i], c.ScalarMul(pr.G, big.NewInt(rng.Int63n(1<<40)+1)))
			}
		}
		return out
	}
	var shapes []struct {
		name   string
		groups [][]ec.Point
	}
	for _, k := range []int{1, 2, 3, 4, 8} {
		shapes = append(shapes, struct {
			name   string
			groups [][]ec.Point
		}{fmt.Sprintf("groups=%d/size=3", k), shape(k, 3)})
	}
	for _, n := range []int{4, 8, 16, 32, 64} {
		shapes = append(shapes, struct {
			name   string
			groups [][]ec.Point
		}{fmt.Sprintf("groups=1/size=%d", n), shape(1, n)})
	}
	for _, sh := range shapes {
		for _, path := range []struct {
			name     string
			minPairs int
		}{{"affine", 1}, {"jacobian", 1 << 30}, {"SumEach", 0}} {
			b.Run(sh.name+"/"+path.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if path.minPairs == 0 {
						c.SumEach(sh.groups)
					} else {
						c.SumEachWith(sh.groups, path.minPairs)
					}
				}
			})
		}
		base, lists := indexGroups(sh.groups)
		var s ec.SumScratch
		b.Run(sh.name+"/SumEachIndex", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.SumEachIndex(&s, base, lists)
			}
		})
	}
}
