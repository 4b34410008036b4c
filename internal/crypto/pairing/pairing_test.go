package pairing

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

func toy(t testing.TB) *Params {
	t.Helper()
	return Toy()
}

func TestParamsSane(t *testing.T) {
	pr := toy(t)
	if !pr.R.ProbablyPrime(32) {
		t.Fatal("r not prime")
	}
	if !pr.F.P.ProbablyPrime(32) {
		t.Fatal("p not prime")
	}
	// p ≡ 2 (mod 3), p ≡ 3 (mod 4)
	if new(big.Int).Mod(pr.F.P, big.NewInt(3)).Int64() != 2 {
		t.Fatal("p !≡ 2 (mod 3)")
	}
	if new(big.Int).Mod(pr.F.P, big.NewInt(4)).Int64() != 3 {
		t.Fatal("p !≡ 3 (mod 4)")
	}
	// r | p+1
	rem := new(big.Int)
	rem.Mod(pr.C.Order, pr.R)
	if rem.Sign() != 0 {
		t.Fatal("r does not divide the curve order")
	}
	// Generator has order exactly r (prime, so ≠ ∞ and r·G = ∞ suffice).
	if pr.G.Inf {
		t.Fatal("generator is identity")
	}
	if !pr.C.ScalarMul(pr.G, pr.R).Equal(pr.C.Infinity()) {
		t.Fatal("r·G != ∞")
	}
}

func TestParamsDeterministicAndCached(t *testing.T) {
	a := ByName("toy")
	b := ByName("toy")
	if a != b {
		t.Error("preset not cached")
	}
	if a.R.Cmp(Toy().R) != 0 {
		t.Error("parameters not deterministic")
	}
}

func TestUnknownPresetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown preset should panic")
		}
	}()
	ByName("no-such-preset")
}

func TestLookupUnknownPreset(t *testing.T) {
	for _, name := range []string{"bogus", "conservative"} {
		if _, err := Lookup(name); err == nil || !strings.Contains(err.Error(), "default, toy") {
			t.Errorf("Lookup(%q) = %v, want an error naming the known presets", name, err)
		}
	}
}

func TestPairingNonDegenerate(t *testing.T) {
	pr := toy(t)
	e := pr.PairBase()
	if pr.IsOne(e) {
		t.Fatal("ê(G, G) = 1: pairing degenerate")
	}
	// ê(G,G) has order r.
	if !pr.IsOne(pr.GTExp(e, pr.R)) {
		t.Fatal("ê(G,G)^r != 1")
	}
}

func TestPairingBilinear(t *testing.T) {
	pr := toy(t)
	rng := rand.New(rand.NewSource(11))
	base := pr.PairBase()
	for i := 0; i < 4; i++ {
		a := new(big.Int).Rand(rng, pr.R)
		b := new(big.Int).Rand(rng, pr.R)
		pa := pr.C.ScalarMul(pr.G, a)
		qb := pr.C.ScalarMul(pr.G, b)
		lhs := pr.Pair(pa, qb)
		ab := new(big.Int).Mul(a, b)
		ab.Mod(ab, pr.R)
		rhs := pr.GTExp(base, ab)
		if !lhs.Equal(rhs) {
			t.Fatalf("bilinearity failed for a=%v b=%v", a, b)
		}
	}
}

func TestPairingMultiplicativeInFirstArg(t *testing.T) {
	pr := toy(t)
	rng := rand.New(rand.NewSource(12))
	a := new(big.Int).Rand(rng, pr.R)
	b := new(big.Int).Rand(rng, pr.R)
	pa := pr.C.ScalarMul(pr.G, a)
	pb := pr.C.ScalarMul(pr.G, b)
	sum := pr.C.Add(pa, pb)
	lhs := pr.Pair(sum, pr.G)
	rhs := pr.GTMul(pr.Pair(pa, pr.G), pr.Pair(pb, pr.G))
	if !lhs.Equal(rhs) {
		t.Fatal("ê(P1+P2, G) != ê(P1,G)·ê(P2,G)")
	}
}

func TestPairingSymmetric(t *testing.T) {
	pr := toy(t)
	rng := rand.New(rand.NewSource(13))
	a := new(big.Int).Rand(rng, pr.R)
	pa := pr.C.ScalarMul(pr.G, a)
	if !pr.Pair(pa, pr.G).Equal(pr.Pair(pr.G, pa)) {
		t.Fatal("Type-1 pairing not symmetric")
	}
}

func TestPairingIdentityArguments(t *testing.T) {
	pr := toy(t)
	if !pr.IsOne(pr.Pair(pr.C.Infinity(), pr.G)) {
		t.Error("ê(∞, G) != 1")
	}
	if !pr.IsOne(pr.Pair(pr.G, pr.C.Infinity())) {
		t.Error("ê(G, ∞) != 1")
	}
}

func TestRandScalarInRange(t *testing.T) {
	pr := toy(t)
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		s := pr.RandScalar([]byte{byte(i)})
		if s.Sign() <= 0 || s.Cmp(pr.R) >= 0 {
			t.Fatalf("scalar %v out of (0, r)", s)
		}
		seen[s.String()] = true
	}
	if len(seen) < 60 {
		t.Error("suspiciously many scalar collisions")
	}
}

func TestDefaultPresetSound(t *testing.T) {
	if testing.Short() {
		t.Skip("default preset generation is slower")
	}
	pr := Default()
	if pr.F.P.BitLen() < 500 {
		t.Fatalf("default prime only %d bits", pr.F.P.BitLen())
	}
	if pr.R.BitLen() < 155 {
		t.Fatalf("default order only %d bits", pr.R.BitLen())
	}
	e := pr.PairBase()
	if pr.IsOne(e) {
		t.Fatal("degenerate pairing at default preset")
	}
	// Bilinearity spot check.
	a := big.NewInt(123456789)
	lhs := pr.Pair(pr.C.ScalarMul(pr.G, a), pr.G)
	rhs := pr.GTExp(e, a)
	if !lhs.Equal(rhs) {
		t.Fatal("bilinearity fails at default preset")
	}
}

func BenchmarkPairToy(b *testing.B) {
	pr := Toy()
	p := pr.C.ScalarMul(pr.G, big.NewInt(12345))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Pair(p, pr.G)
	}
}
