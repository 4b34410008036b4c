package pairing

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/ec"
	"github.com/vchain-go/vchain/internal/crypto/ff"
)

// refMiller is the reference Miller loop: f_{r,P}(at) over the binary
// digits of r in affine coordinates, with numerator and denominator
// kept apart and divided once at the end. It is written out in full
// rather than through millerStep, so the shipped loop is checked
// against code it does not share. A vertical can vanish only at an
// F_p-rational evaluation point, φ((0, ±1)) = (0, ±1), for a looped
// point with a 3-torsion component; the value is then undefined, and
// refMiller returns zero, the value the shipped loop rejects with.
func refMiller(pr *Params, p ec.Point, at ec.Point2) ff.Elt2 {
	f, x := pr.F, pr.X
	vert := func(x0 ff.Elt) ff.Elt2 { return x.Sub(at.X, x.FromBase(x0)) }
	step := func(a, b ec.Point) (ff.Elt2, ff.Elt2, ec.Point) {
		one := x.One()
		switch {
		case a.Inf && b.Inf:
			return one, one, a
		case a.Inf:
			return vert(b.X), vert(b.X), b
		case b.Inf:
			return vert(a.X), vert(a.X), a
		case a.X.Equal(b.X) && (!a.Y.Equal(b.Y) || a.Y.IsZero()):
			return vert(a.X), one, ec.Point{Inf: true}
		}
		var lambda ff.Elt
		if a.X.Equal(b.X) {
			lambda = f.Mul(f.Mul(f.FromInt64(3), f.Square(a.X)), f.Inv(f.Add(a.Y, a.Y)))
		} else {
			lambda = f.Mul(f.Sub(b.Y, a.Y), f.Inv(f.Sub(b.X, a.X)))
		}
		l := x.Sub(x.Sub(at.Y, x.FromBase(a.Y)), x.MulBase(x.Sub(at.X, x.FromBase(a.X)), lambda))
		sx := f.Sub(f.Sub(f.Square(lambda), a.X), b.X)
		sy := f.Sub(f.Mul(lambda, f.Sub(a.X, sx)), a.Y)
		return l, vert(sx), ec.Point{X: sx, Y: sy}
	}
	num, den := x.One(), x.One()
	v := p
	for i := pr.R.BitLen() - 2; i >= 0; i-- {
		num, den = x.Square(num), x.Square(den)
		l, vt, next := step(v, v)
		num, den, v = x.Mul(num, l), x.Mul(den, vt), next
		if pr.R.Bit(i) == 1 {
			l, vt, next := step(v, p)
			num, den, v = x.Mul(num, l), x.Mul(den, vt), next
		}
	}
	if den.IsZero() {
		return x.Zero() // a vanishing vertical: no value, the loop rejects
	}
	return x.Mul(num, x.Inv(den))
}

// refPair is the reference reduced pairing: refMiller raised to
// (p²−1)/r by the generic square-and-multiply.
func refPair(pr *Params, p, q ec.Point) GT {
	if p.Inf || q.Inf {
		return pr.GTOne()
	}
	e := new(big.Int).Mul(pr.F.P, pr.F.P)
	e.Sub(e, big.NewInt(1))
	e.Div(e, pr.R)
	return GT{V: pr.X.Exp(refMiller(pr, p, pr.C2.Distort(q)), e)}
}

// torsion returns a point of order dividing 12 outside G: the
// 12-cofactor part of a hash-to-curve point. r is prime and coprime to
// 12, and 12 divides p+1, so [(p+1)/12]·H lies in E[12].
func torsion(pr *Params, label string) ec.Point {
	h := pr.C.HashToPoint([]byte(label), shaBytes)
	k := new(big.Int).Div(pr.C.Order, big.NewInt(12))
	return pr.C.ScalarMul(h, k)
}

// loopedPoints returns the first arguments the differential tests run:
// points of G, G plus 2- and 3-torsion, the bare torsion points
// (−1, 0), (0, ±1) and order-dividing-12 points, un-cleared
// hash-to-curve points, and infinity.
func loopedPoints(pr *Params, rng *rand.Rand) []ec.Point {
	f := pr.F
	t2 := ec.Point{X: f.FromInt64(-1), Y: f.Zero()}
	t3 := ec.Point{X: f.Zero(), Y: f.One()}
	t3n := ec.Point{X: f.Zero(), Y: f.FromInt64(-1)}
	g := randPoint(pr, rng)
	pts := []ec.Point{
		pr.G, g, pr.C.Neg(g),
		pr.C.Add(g, t2), pr.C.Add(g, t3), pr.C.Add(g, t3n),
		t2, t3, t3n,
		pr.C.Infinity(),
	}
	for _, label := range []string{"torsion/a", "torsion/b", "torsion/c"} {
		t := torsion(pr, label)
		pts = append(pts, t, pr.C.Add(g, t))
	}
	for _, label := range []string{"uncleared/a", "uncleared/b", "uncleared/c"} {
		pts = append(pts, pr.C.HashToPoint([]byte(label), shaBytes))
	}
	for _, p := range pts {
		if !pr.C.IsOnCurve(p) {
			panic("pairing: test point off the curve")
		}
	}
	return pts
}

func presetsUnderTest(t *testing.T) []*Params {
	if testing.Short() {
		return []*Params{Toy()}
	}
	return []*Params{Toy(), Default()}
}

// TestPairMatchesReference pins Pair and PairProduct bit for bit to the
// affine binary-schedule loop and the generic final exponentiation,
// for looped points in and outside G, evaluated at points of G and at
// the 3-torsion points (0, ±1), which Construction 1's proofs can be.
func TestPairMatchesReference(t *testing.T) {
	for _, pr := range presetsUnderTest(t) {
		rng := rand.New(rand.NewSource(71))
		ps := loopedPoints(pr, rng)
		// (0, ±1) are F_p-rational under the distortion map: the one
		// evaluation point at which a line of the loop can vanish.
		qs := []ec.Point{pr.G, randPoint(pr, rng), pr.C.Infinity(), ps[7], ps[8]}
		var pairs []PairPair
		want := pr.GTOne()
		for i, p := range ps {
			for j, q := range qs {
				ref := refPair(pr, p, q)
				if got := pr.Pair(p, q); !got.Equal(ref) {
					t.Fatalf("%s: Pair(point %d, Q %d) differs from the reference", pr.Name, i, j)
				}
				if j == 1 {
					pairs = append(pairs, PairPair{P: p, Q: q})
					want = pr.GTMul(want, ref)
				}
			}
		}
		if got := pr.PairProduct(pairs...); !got.Equal(want) {
			t.Fatalf("%s: PairProduct differs from the product of reference pairings", pr.Name)
		}
		// Two pairs sharing their Q, one of them outside G.
		p0, p1 := ps[1], ps[4]
		want = pr.GTMul(refPair(pr, p0, pr.G), refPair(pr, p1, pr.G))
		if got := pr.PairProduct(PairPair{P: p0, Q: pr.G}, PairPair{P: p1, Q: pr.G}); !got.Equal(want) {
			t.Fatalf("%s: PairProduct over a shared Q differs from the reference", pr.Name)
		}
	}
}

// TestPairingEqualMatchesReference checks that the one-product
// comparison gives the verdict of comparing reference pairings, also
// for points outside G, where ê(−P, Q) need not invert ê(P, Q).
func TestPairingEqualMatchesReference(t *testing.T) {
	for _, pr := range presetsUnderTest(t) {
		rng := rand.New(rand.NewSource(73))
		ps := loopedPoints(pr, rng)
		q := randPoint(pr, rng)
		for i, a := range ps {
			for j, b := range ps {
				want := refPair(pr, a, q).Equal(refPair(pr, b, pr.G))
				got := pr.PairingEqual([]PairPair{{P: a, Q: q}}, []PairPair{{P: b, Q: pr.G}})
				if got != want {
					t.Fatalf("%s: PairingEqual(point %d, point %d) = %v, reference %v", pr.Name, i, j, got, want)
				}
			}
		}
		// An honest equation ê(aG, bG) == ê(abG, G) holds.
		a := new(big.Int).Rand(rng, pr.R)
		b := new(big.Int).Rand(rng, pr.R)
		ab := new(big.Int).Mod(new(big.Int).Mul(a, b), pr.R)
		lhs := []PairPair{{P: pr.C.ScalarMul(pr.G, a), Q: pr.C.ScalarMul(pr.G, b)}}
		if !pr.PairingEqual(lhs, []PairPair{{P: pr.C.ScalarMul(pr.G, ab), Q: pr.G}}) {
			t.Fatalf("%s: true equation rejected", pr.Name)
		}
	}
}

// refBatch returns random 64-bit randomizers for eqs, the first 1, and
// ∏_i (∏_j ê(P_ij, Q_ij)·ê(−R_i, G))^{e_i} from reference pairings.
func refBatch(pr *Params, rng *rand.Rand, eqs []BatchEquation) ([]*big.Int, GT) {
	exps := make([]*big.Int, len(eqs))
	want := pr.GTOne()
	for i := range eqs {
		exps[i] = new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 64))
		if i == 0 {
			exps[i].SetInt64(1)
		}
		v := refPair(pr, pr.C.Neg(eqs[i].R), pr.G)
		for _, pp := range eqs[i].Pairs {
			v = pr.GTMul(v, refPair(pr, pp.P, pp.Q))
		}
		want = pr.GTMul(want, pr.GTExp(v, exps[i]))
	}
	return exps, want
}

// TestBatchProductMatchesReference pins PairingCheckBatch's product,
// with fixed randomizers, to ∏_i (∏_j ê(P_ij, Q_ij)·ê(−R_i, G))^{e_i}
// from reference pairings. Pairs whose Q is shared collapse through an
// MSM, which is exact by bilinearity for points of G only; pairs with
// a Q of their own keep their point, so those carry the torsion. Pairs
// alone on their Q that share a P ∈ G collapse through an MSM over
// their Qs, which is exact for any on-curve Qs: they carry the torsion
// and the F_p-rational evaluation points (0, ±1).
func TestBatchProductMatchesReference(t *testing.T) {
	for _, pr := range presetsUnderTest(t) {
		rng := rand.New(rand.NewSource(79))
		ps := loopedPoints(pr, rng)
		clause := randPoint(pr, rng)
		var eqs []BatchEquation
		for i, p := range ps {
			eqs = append(eqs, BatchEquation{
				Pairs: []PairPair{
					{P: p, Q: randPoint(pr, rng)},       // unique Q
					{P: randPoint(pr, rng), Q: clause},  // shared Q
					{P: randPoint(pr, rng), Q: ps[i%2]}, // G or a random G point: shared
				},
				R: randPoint(pr, rng),
			})
		}
		exps, want := refBatch(pr, rng, eqs)
		if got := pr.batchProduct(eqs, exps); !got.Equal(want) {
			t.Fatalf("%s: batch product differs from the reference", pr.Name)
		}
		// One digest against many clauses, each alone on its Q: points
		// of G, G plus 2- and 3-torsion, the bare (−1, 0) and (0, ±1).
		// A second digest shares two equations with the first, and one
		// pair shares neither argument.
		digest, other := randPoint(pr, rng), randPoint(pr, rng)
		qs := []ec.Point{randPoint(pr, rng), randPoint(pr, rng), ps[3], ps[4], ps[5], ps[6], ps[7], ps[8]}
		eqs = eqs[:0]
		for i, q := range qs {
			pairs := []PairPair{{P: digest, Q: q}}
			if i%4 == 1 {
				pairs = append(pairs, PairPair{P: other, Q: randPoint(pr, rng)})
			}
			eqs = append(eqs, BatchEquation{Pairs: pairs, R: randPoint(pr, rng)})
		}
		eqs[2].Pairs = append(eqs[2].Pairs, PairPair{P: randPoint(pr, rng), Q: randPoint(pr, rng)})
		exps, want = refBatch(pr, rng, eqs)
		if n := millerPairs(pr.planBatch(eqs, exps)); n != 4 {
			t.Fatalf("%s: shared-digest batch plans %d Miller pairs, want 4 (G, two digests, one lone pair)", pr.Name, n)
		}
		if got := pr.batchProduct(eqs, exps); !got.Equal(want) {
			t.Fatalf("%s: shared-digest batch product differs from the reference", pr.Name)
		}
		// One equation: nothing collapses, so any looped point is exact.
		for i, p := range ps {
			eq := []BatchEquation{{Pairs: []PairPair{{P: p, Q: clause}}, R: ps[(i+5)%len(ps)]}}
			want := pr.GTMul(refPair(pr, p, clause), refPair(pr, pr.C.Neg(eq[0].R), pr.G))
			if got := pr.batchProduct(eq, []*big.Int{big.NewInt(1)}); !got.Equal(want) {
				t.Fatalf("%s: one-equation batch product for point %d differs from the reference", pr.Name, i)
			}
		}
	}
}

// TestFinalExpZero: a zero Miller value stays zero (a reject) and does
// not panic on the inversion of its norm.
func TestFinalExpZero(t *testing.T) {
	pr := Toy()
	if !pr.finalExp(pr.X.Zero()).IsZero() {
		t.Fatal("finalExp(0) != 0")
	}
	// (0, 1) looped and evaluated at itself: its tangent y = 1 vanishes
	// at φ((0, 1)) = (0, 1).
	t3 := ec.Point{X: pr.F.Zero(), Y: pr.F.One()}
	if pr.IsOne(pr.PairProduct(PairPair{P: t3, Q: t3})) {
		t.Fatal("vanishing Miller value accepted")
	}
	if pr.PairingCheckBatch([]BatchEquation{{Pairs: []PairPair{{P: t3, Q: t3}}, R: pr.C.Infinity()}}) {
		t.Fatal("vanishing Miller value accepted by the batch")
	}
}

// FuzzMillerLoop runs arbitrary on-curve first arguments (hash-to-curve
// points with every cofactor component, plus optional torsion) against
// second arguments in G at the toy preset: Pair must equal the
// reference pairing and never panic, also evaluated at (0, 1).
func FuzzMillerLoop(f *testing.F) {
	pr := Toy()
	f.Add([]byte("p"), []byte{1}, uint8(0))
	f.Add([]byte("torsion"), []byte{0xff, 0x01}, uint8(1))
	f.Add([]byte{}, []byte{}, uint8(2))
	f.Add([]byte("x"), []byte{7, 7, 7}, uint8(3))
	f.Fuzz(func(t *testing.T, pSeed, qScalar []byte, mode uint8) {
		p := pr.C.HashToPoint(pSeed, shaBytes)
		switch mode % 5 {
		case 1: // clear the cofactor: a point of G
			p = pr.C.ScalarMul(p, pr.Cofactor)
		case 2: // keep only the small torsion
			p = pr.C.ScalarMul(p, new(big.Int).Div(pr.C.Order, big.NewInt(12)))
		case 3: // the point at infinity
			p = pr.C.Infinity()
		case 4: // G plus the 2-torsion point
			p = pr.C.Add(pr.C.ScalarMul(p, pr.Cofactor), ec.Point{X: pr.F.FromInt64(-1), Y: pr.F.Zero()})
		}
		q := pr.C.ScalarMul(pr.G, new(big.Int).SetBytes(qScalar))
		if got, want := pr.Pair(p, q), refPair(pr, p, q); !got.Equal(want) {
			t.Fatalf("Pair differs from the reference for P from %x (mode %d), k = %x", pSeed, mode%5, qScalar)
		}
		t3 := ec.Point{X: pr.F.Zero(), Y: pr.F.One()}
		if got, want := pr.Pair(p, t3), refPair(pr, p, t3); !got.Equal(want) {
			t.Fatalf("Pair(P, (0, 1)) differs from the reference for P from %x (mode %d)", pSeed, mode%5)
		}
		// The same pairs, one of them conjugated, as one loop and split.
		args := pr.millerArgs(nil, []PairPair{{P: p, Q: q}, {P: pr.G, Q: q}}, false)
		args = pr.millerArgs(args, []PairPair{{P: p, Q: t3}}, true)
		one := pr.millerTerms(splitArgs(nil, args, 1), 1)
		for n := 2; n <= len(args); n++ {
			if !pr.millerTerms(splitArgs(nil, args, n), n).Equal(one) {
				t.Fatalf("Miller loop split %d ways differs from one loop for P from %x (mode %d)", n, pSeed, mode%5)
			}
		}
	})
}

// TestMillerSplitMatchesOneLoop pins the split Miller loop to the
// one-goroutine loop bit for bit, before and after the final
// exponentiation, for 1–9 args cut into every number of ranges. The
// args are the hostile on-curve points of loopedPoints (torsion
// components, the bare points (−1, 0) and (0, ±1)) evaluated at G, at
// a point of G and at (0, ±1), half of them entering conjugated as
// PairingEqual's right-hand side does; every set is also run with a
// pair whose tangent vanishes at its evaluation point, whose zero
// Miller value must stay a reject however the loop is cut.
func TestMillerSplitMatchesOneLoop(t *testing.T) {
	for _, pr := range presetsUnderTest(t) {
		rng := rand.New(rand.NewSource(83))
		var ps []ec.Point
		for _, p := range loopedPoints(pr, rng) {
			if !p.Inf {
				ps = append(ps, p)
			}
		}
		t3 := ec.Point{X: pr.F.Zero(), Y: pr.F.One()}
		t3n := ec.Point{X: pr.F.Zero(), Y: pr.F.FromInt64(-1)}
		qs := []ec.Point{pr.G, randPoint(pr, rng), t3, t3n}
		var pairs []PairPair
		for i, p := range ps {
			pairs = append(pairs, PairPair{P: p, Q: qs[i%len(qs)]})
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		vanish := PairPair{P: t3, Q: t3}
		for m := 1; m <= 9; m++ {
			for _, zero := range []bool{false, true} {
				sel := make([]PairPair, m)
				for i := range sel {
					sel[i] = pairs[(m*m+i)%len(pairs)]
				}
				if zero {
					sel[m/2] = vanish
				}
				args := pr.millerArgs(pr.millerArgs(nil, sel[:m/2], false), sel[m/2:], true)
				one := pr.millerRange(args)
				want := pr.finalExp(one)
				if zero && !want.IsZero() {
					t.Fatalf("%s: %d args with a vanishing tangent: Miller value not zero", pr.Name, m)
				}
				for n := 1; n <= m; n++ {
					got := pr.millerTerms(splitArgs(nil, args, n), n)
					if !got.Equal(one) {
						t.Fatalf("%s: %d args split %d ways (vanishing %v): Miller value differs from one loop", pr.Name, m, n, zero)
					}
					if !pr.finalExp(got).Equal(want) {
						t.Fatalf("%s: %d args split %d ways (vanishing %v): reduced value differs from one loop", pr.Name, m, n, zero)
					}
				}
				// The batch's shape: the loop's ranges beside one-pair
				// loops raised to their randomizers, on n goroutines.
				e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 64))
				terms := []millerTerm{{args: args[:1], exp: e}}
				wantTerms := pr.X.Mul(pr.X.Exp(pr.millerRange(args[:1]), e), pr.millerRange(args[1:]))
				for n := 1; n <= m; n++ {
					if got := pr.millerTerms(splitArgs(terms, args[1:], n), n); !got.Equal(wantTerms) {
						t.Fatalf("%s: %d args with a raised term on %d goroutines: value differs from sequential", pr.Name, m, n)
					}
				}
			}
		}
	}
}

// BenchmarkMillerLoop and BenchmarkFinalExp split one Pair into its two
// halves at each preset: the Miller loop f_{r,P}(φ(Q)) and the final
// exponentiation f^((p²−1)/r). The Miller loop runs products of 1, 2,
// 4, 8 and 9 pairs, as millerLoop serves them, on the scalar path and,
// where the field has the 8-lane kernel, on the lanes.
func BenchmarkMillerLoop(b *testing.B) {
	for _, name := range []string{"toy", "default"} {
		pr := ByName(name)
		rng := rand.New(rand.NewSource(5))
		pairs := []PairPair{{P: randPoint(pr, rng), Q: pr.G}}
		for len(pairs) < 9 {
			pairs = append(pairs, PairPair{P: randPoint(pr, rng), Q: randPoint(pr, rng)})
		}
		args := pr.millerArgs(nil, pairs, false)
		paths := []*Params{pr.ScalarMiller()}
		if pr.lanes() {
			paths = append(paths, pr)
		}
		for _, m := range []int{1, 2, 4, 8, 9} {
			for _, p := range paths {
				path := "scalar"
				if p.lanes() {
					path = "lanes"
				}
				b.Run(fmt.Sprintf("%s/%d/%s", name, m, path), func(b *testing.B) {
					for b.Loop() {
						p.millerLoop(args[:m])
					}
				})
			}
		}
	}
}

func BenchmarkFinalExp(b *testing.B) {
	for _, name := range []string{"toy", "default"} {
		b.Run(name, func(b *testing.B) {
			pr := ByName(name)
			f := pr.millerLoop(pr.millerArgs(nil, []PairPair{{P: pr.C.ScalarMul(pr.G, big.NewInt(12345)), Q: pr.G}}, false))
			for b.Loop() {
				pr.finalExp(f)
			}
		})
	}
}
