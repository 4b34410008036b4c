package pairing

import (
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/ec"
	"github.com/vchain-go/vchain/internal/crypto/ff"
)

// laneParams returns the default preset, whose field runs the 8-lane
// kernel where the host has AVX-512 IFMA, and skips the test elsewhere.
func laneParams(t testing.TB) *Params {
	pr := Default()
	if !pr.lanes() {
		t.Skip("8-lane IFMA kernel not selected on this host (not amd64, or no AVX-512 IFMA)")
	}
	return pr
}

// laneInputs are the pairs the lane tests run at pr: points of G
// evaluated at G and at a point of G, G plus 2- and 3-torsion, the
// bare torsion points, un-cleared hash-to-curve points, P = Q and
// P = −Q, each class also evaluated at (0, ±1), and a pair whose
// tangent vanishes at its evaluation point.
func laneInputs(pr *Params, rng *rand.Rand) []PairPair {
	t3 := ec.Point{X: pr.F.Zero(), Y: pr.F.One()}
	t3n := pr.C.Neg(t3)
	qs := []ec.Point{pr.G, randPoint(pr, rng), t3, t3n}
	var pairs []PairPair
	for i, p := range loopedPoints(pr, rng) {
		if !p.Inf {
			pairs = append(pairs, PairPair{P: p, Q: qs[i%len(qs)]}, PairPair{P: p, Q: qs[(i+1)%len(qs)]})
		}
	}
	g := randPoint(pr, rng)
	pairs = append(pairs, PairPair{P: g, Q: g}, PairPair{P: pr.C.Neg(g), Q: g}, PairPair{P: t3, Q: t3})
	for range 8 {
		pairs = append(pairs, PairPair{P: randPoint(pr, rng), Q: randPoint(pr, rng)})
	}
	return pairs
}

// TestMillerLanesMatchScalar pins the lane Miller loop to the scalar
// one element for element, before the final exponentiation, at the
// default preset: 1–17 args drawn from laneInputs, about half entering
// conjugated, cut into terms of which some are raised to a random
// 64-bit exponent, on one and on two goroutines. Every arg's own value
// (millerChunk) is also checked against its scalar loop.
func TestMillerLanesMatchScalar(t *testing.T) {
	pr := laneParams(t)
	sc := pr.ScalarMiller()
	rng := rand.New(rand.NewSource(89))
	pairs := laneInputs(pr, rng)
	for m := 1; m <= 17; m++ {
		var args []millerArg
		for range m {
			args = pr.millerArgs(args, pairs[rng.Intn(len(pairs)):][:1], rng.Intn(2) == 0)
		}
		var terms []millerTerm
		for rest := args; len(rest) > 0; {
			k := 1 + rng.Intn(len(rest))
			term := millerTerm{args: rest[:k]}
			if rng.Intn(2) == 0 {
				term.exp = new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 64))
			}
			terms, rest = append(terms, term), rest[k:]
		}
		for _, n := range []int{1, 2} {
			if got, want := pr.millerTerms(terms, n), sc.millerTerms(terms, n); !got.Equal(want) {
				t.Fatalf("%d args in %d terms on %d goroutines: lane product differs from scalar", m, len(terms), n)
			}
		}
		if m > 8 {
			continue
		}
		vals := make([]ff.Elt2, m)
		pr.millerChunk(args, vals)
		for j, a := range args {
			if want := sc.millerRange(args[j : j+1]); !vals[j].Equal(want) {
				t.Fatalf("%d args: lane %d (conjugated %v) differs from its scalar loop", m, j, a.inv)
			}
		}
	}
}

// FuzzMillerLanes runs lane and scalar Miller products on arbitrary
// mixes of 1–17 pairs at the default preset and requires them equal
// element for element. Each pair's class comes from three bits of
// modes: a point of G at G, an un-cleared hash point, G plus the
// 2-torsion point, bare 12-torsion, P = Q, P = −Q, a point of G at
// (0, 1), and G plus (0, 1). Bits of invs conjugate args, and bits of
// cuts end terms, every other one raised to an exponent.
func FuzzMillerLanes(f *testing.F) {
	f.Add([]byte("lanes"), uint8(2), uint64(0), uint32(0), uint32(0))
	f.Add([]byte("mixed"), uint8(7), uint64(0o76543210), uint32(0x55), uint32(0x0c))
	f.Add([]byte("full"), uint8(16), uint64(0o7654321076543210), uint32(0x1a5a5), uint32(0x8421))
	f.Fuzz(func(t *testing.T, seed []byte, k uint8, modes uint64, invs, cuts uint32) {
		pr := laneParams(t)
		n := 1 + int(k)%17
		t2 := ec.Point{X: pr.F.FromInt64(-1), Y: pr.F.Zero()}
		t3 := ec.Point{X: pr.F.Zero(), Y: pr.F.One()}
		var args []millerArg
		var terms []millerTerm
		for i := range n {
			h := pr.C.HashToPoint(append(append([]byte(nil), seed...), byte(i)), shaBytes)
			g := pr.C.ScalarMul(h, pr.Cofactor)
			q := pr.C.ScalarMul(pr.G, big.NewInt(int64(i)+2))
			p := g
			switch modes >> (3 * (i % 21)) & 7 {
			case 0:
				q = pr.G
			case 1:
				p = h
			case 2:
				p = pr.C.Add(g, t2)
			case 3:
				p = pr.C.ScalarMul(h, new(big.Int).Div(pr.C.Order, big.NewInt(12)))
			case 4:
				q = g
			case 5:
				q = pr.C.Neg(g)
			case 6:
				q = t3
			case 7:
				p = pr.C.Add(g, t3)
			}
			args = pr.millerArgs(args, []PairPair{{P: p, Q: q}}, invs>>i&1 == 1)
			if cuts>>i&1 == 1 || i == n-1 {
				term := millerTerm{args: args}
				if len(terms)%2 == 1 {
					d := sha256.Sum256(append(append([]byte(nil), seed...), byte(i), 'e'))
					term.exp = new(big.Int).SetBytes(d[:8])
				}
				terms, args = append(terms, term), nil
			}
		}
		if got, want := pr.millerTerms(terms, 2), pr.ScalarMiller().millerTerms(terms, 2); !got.Equal(want) {
			t.Fatalf("%d pairs from %x (modes %o, invs %x, cuts %x): lane product differs from scalar", n, seed, modes, invs, cuts)
		}
	})
}
