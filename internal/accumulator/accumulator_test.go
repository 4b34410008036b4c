package accumulator

import (
	"errors"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/multiset"
)

func con1(t testing.TB, q int) *Con1 {
	t.Helper()
	return KeyGenCon1Deterministic(pairing.Toy(), q, []byte("test"))
}

func con2(t testing.TB, q int) *Con2 {
	t.Helper()
	return KeyGenCon2Deterministic(pairing.Toy(), q, HashEncoder{Q: q}, []byte("test"))
}

// both returns both constructions behind the common interface so shared
// behaviours are tested uniformly.
func both(t *testing.T) []Accumulator {
	return []Accumulator{con1(t, 32), con2(t, 64)}
}

func TestSetupDeterministic(t *testing.T) {
	for _, acc := range both(t) {
		x := multiset.New("sedan", "benz")
		a1, err := acc.Setup(x)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := acc.Setup(x)
		if err != nil {
			t.Fatal(err)
		}
		if !acc.AccEqual(a1, a2) {
			t.Errorf("%s: Setup not deterministic", acc.Name())
		}
		// Different multiset, different value.
		b, err := acc.Setup(multiset.New("van", "benz"))
		if err != nil {
			t.Fatal(err)
		}
		if acc.AccEqual(a1, b) {
			t.Errorf("%s: distinct multisets accumulated identically", acc.Name())
		}
	}
}

func TestMultiplicityChangesAcc(t *testing.T) {
	for _, acc := range both(t) {
		a, err := acc.Setup(multiset.New("x", "y"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := acc.Setup(multiset.New("x", "x", "y"))
		if err != nil {
			t.Fatal(err)
		}
		if acc.AccEqual(a, b) {
			t.Errorf("%s: multiplicity ignored by Setup", acc.Name())
		}
	}
}

func TestProveVerifyDisjoint(t *testing.T) {
	for _, acc := range both(t) {
		w := multiset.New("van", "benz")
		clause := multiset.New("sedan")
		pf, err := acc.ProveDisjoint(w, clause)
		if err != nil {
			t.Fatalf("%s: %v", acc.Name(), err)
		}
		aw, err := acc.Setup(w)
		if err != nil {
			t.Fatal(err)
		}
		ac, err := acc.Setup(clause)
		if err != nil {
			t.Fatal(err)
		}
		if !acc.VerifyDisjoint(aw, ac, pf) {
			t.Errorf("%s: valid disjoint proof rejected", acc.Name())
		}
	}
}

func TestProveDisjointRejectsIntersecting(t *testing.T) {
	for _, acc := range both(t) {
		w := multiset.New("van", "benz")
		clause := multiset.New("benz", "bmw")
		if _, err := acc.ProveDisjoint(w, clause); !errors.Is(err, ErrNotDisjoint) {
			t.Errorf("%s: want ErrNotDisjoint, got %v", acc.Name(), err)
		}
	}
}

func TestVerifyRejectsWrongProof(t *testing.T) {
	for _, acc := range both(t) {
		w := multiset.New("van", "benz")
		clause := multiset.New("sedan")
		other := multiset.New("audi")
		pf, err := acc.ProveDisjoint(w, other) // proof for the wrong clause
		if err != nil {
			t.Fatal(err)
		}
		aw, _ := acc.Setup(w)
		ac, _ := acc.Setup(clause)
		if acc.VerifyDisjoint(aw, ac, pf) {
			t.Errorf("%s: proof for a different clause accepted", acc.Name())
		}
	}
}

func TestVerifyRejectsWrongAcc(t *testing.T) {
	for _, acc := range both(t) {
		w := multiset.New("van", "benz")
		clause := multiset.New("sedan")
		pf, err := acc.ProveDisjoint(w, clause)
		if err != nil {
			t.Fatal(err)
		}
		// Accumulate a multiset that DOES contain "sedan" and try to
		// pass the old proof off against it: must fail (soundness).
		forged := multiset.New("sedan", "benz")
		af, _ := acc.Setup(forged)
		ac, _ := acc.Setup(clause)
		if acc.VerifyDisjoint(af, ac, pf) {
			t.Errorf("%s: proof transplanted onto intersecting multiset accepted", acc.Name())
		}
	}
}

func TestUnforgeabilityRandomProofs(t *testing.T) {
	// Adversary outputs intersecting multisets and tries garbage or
	// related-but-wrong proofs; verification must reject (Def. 8.1).
	for _, acc := range both(t) {
		x1 := multiset.New("a", "b")
		x2 := multiset.New("b", "c") // intersecting: no valid proof exists
		a1, _ := acc.Setup(x1)
		a2, _ := acc.Setup(x2)

		// Candidate forgeries: identity proof, proof for different sets,
		// proof components swapped.
		valid, err := acc.ProveDisjoint(multiset.New("p", "q"), multiset.New("z"))
		if err != nil {
			t.Fatal(err)
		}
		candidates := []Proof{
			{},
			valid,
			{F1: valid.F2, F2: valid.F1},
		}
		for i, pf := range candidates {
			if acc.VerifyDisjoint(a1, a2, pf) {
				t.Errorf("%s: forged proof %d accepted for intersecting multisets", acc.Name(), i)
			}
		}
	}
}

func TestEmptyMultisetEdgeCases(t *testing.T) {
	for _, acc := range both(t) {
		empty := multiset.New()
		w := multiset.New("a")
		ae, err := acc.Setup(empty)
		if err != nil {
			t.Fatal(err)
		}
		aw, _ := acc.Setup(w)
		// ∅ is disjoint from anything.
		pf, err := acc.ProveDisjoint(w, empty)
		if err != nil {
			t.Fatalf("%s: prove vs empty: %v", acc.Name(), err)
		}
		if !acc.VerifyDisjoint(aw, ae, pf) {
			t.Errorf("%s: valid proof vs empty rejected", acc.Name())
		}
		pf2, err := acc.ProveDisjoint(empty, w)
		if err != nil {
			t.Fatalf("%s: prove empty vs w: %v", acc.Name(), err)
		}
		if !acc.VerifyDisjoint(ae, aw, pf2) {
			t.Errorf("%s: valid empty-first proof rejected", acc.Name())
		}
	}
}

func TestCon1CapacityEnforced(t *testing.T) {
	acc := con1(t, 3)
	big := multiset.New("a", "b", "c", "d")
	if _, err := acc.Setup(big); !errors.Is(err, ErrCapacity) {
		t.Errorf("Setup over capacity: %v", err)
	}
	if _, err := acc.ProveDisjoint(big, multiset.New("z")); !errors.Is(err, ErrCapacity) {
		t.Errorf("ProveDisjoint over capacity: %v", err)
	}
}

func TestCon1NoAggregation(t *testing.T) {
	acc := con1(t, 8)
	if acc.SupportsAgg() {
		t.Error("Construction 1 must not claim aggregation")
	}
	if _, err := acc.Sum(); !errors.Is(err, ErrAggUnsupported) {
		t.Error("Sum should be unsupported")
	}
	if _, err := acc.ProofSum(); !errors.Is(err, ErrAggUnsupported) {
		t.Error("ProofSum should be unsupported")
	}
}

func TestCon2SumMatchesSetupOfSum(t *testing.T) {
	acc := con2(t, 64)
	x1 := multiset.New("a", "b")
	x2 := multiset.New("b", "c")
	a1, _ := acc.Setup(x1)
	a2, _ := acc.Setup(x2)
	got, err := acc.Sum(a1, a2)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := acc.Setup(multiset.Sum(x1, x2))
	if !acc.AccEqual(got, want) {
		t.Fatal("Sum(acc(X1), acc(X2)) != acc(X1+X2)")
	}
}

func TestCon2ProofSumVerifies(t *testing.T) {
	acc := con2(t, 64)
	clause := multiset.New("benz")
	x1 := multiset.New("sedan", "audi")
	x2 := multiset.New("van", "bmw")
	p1, err := acc.ProveDisjoint(x1, clause)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := acc.ProveDisjoint(x2, clause)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := acc.ProofSum(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := acc.Setup(x1)
	a2, _ := acc.Setup(x2)
	sum, _ := acc.Sum(a1, a2)
	ac, _ := acc.Setup(clause)
	if !acc.VerifyDisjoint(sum, ac, agg) {
		t.Fatal("aggregated proof rejected: online batch verification broken")
	}
	// And the aggregate equals a direct proof on the summed multiset.
	direct, err := acc.ProveDisjoint(multiset.Sum(x1, x2), clause)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.F1.Equal(direct.F1) {
		t.Fatal("ProofSum disagrees with direct proof of the multiset sum")
	}
}

func TestCon2EncoderBoundsChecked(t *testing.T) {
	// An encoder returning out-of-range values must be rejected.
	badEnc := badEncoder{}
	acc := KeyGenCon2Deterministic(pairing.Toy(), 16, badEnc, []byte("x"))
	if _, err := acc.Setup(multiset.New("a")); err == nil {
		t.Error("out-of-range encoding accepted")
	}
}

type badEncoder struct{}

func (badEncoder) Encode(string) (int, error) { return 99999, nil }

// TestAccProofBytesNonEmpty also checks that each encoding is one
// allocation, the slice it returns.
func TestAccProofBytesNonEmpty(t *testing.T) {
	for _, acc := range both(t) {
		a, _ := acc.Setup(multiset.New("a"))
		if len(acc.AccBytes(a)) == 0 {
			t.Errorf("%s: empty acc encoding", acc.Name())
		}
		pf, err := acc.ProveDisjoint(multiset.New("a"), multiset.New("b"))
		if err != nil {
			t.Fatal(err)
		}
		if len(acc.ProofBytes(pf)) == 0 {
			t.Errorf("%s: empty proof encoding", acc.Name())
		}
		if n := testing.AllocsPerRun(20, func() { acc.AccBytes(a) }); n != 1 {
			t.Errorf("%s: an acc encoding takes %.1f allocations", acc.Name(), n)
		}
		if n := testing.AllocsPerRun(20, func() { acc.ProofBytes(pf) }); n != 1 {
			t.Errorf("%s: a proof encoding takes %.1f allocations", acc.Name(), n)
		}
	}
}

func TestKeyGenRandomized(t *testing.T) {
	pr := pairing.Toy()
	a, err := KeyGenCon1(pr, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KeyGenCon1(pr, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := multiset.New("e")
	aa, _ := a.Setup(x)
	bb, _ := b.Setup(x)
	if a.AccEqual(aa, bb) {
		t.Error("independent keys produced identical accumulators (trapdoor reuse?)")
	}
	c2a, err := KeyGenCon2(pr, 8, HashEncoder{Q: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c2a.q != 8 {
		t.Error("domain bound lost")
	}
}

// wrappedAcc is a decorator that embeds the interface, as tracing
// wrappers do.
type wrappedAcc struct{ Accumulator }

// TestCodecFromNames: a codec built from a construction's name and
// the preset ParamsOf reports, through decorators, decodes what the
// keyed accumulator encodes; unknown names are refused.
func TestCodecFromNames(t *testing.T) {
	pr := pairing.Toy()
	for _, acc := range []Accumulator{
		KeyGenCon1Deterministic(pr, 8, []byte("codec")),
		KeyGenCon2Deterministic(pr, 64, HashEncoder{Q: 64}, []byte("codec")),
	} {
		got, err := ParamsOf(&wrappedAcc{wrappedAcc{acc}})
		if err != nil || got != pr {
			t.Fatalf("%s: ParamsOf through two decorators = %v, %v", acc.Name(), got, err)
		}
		codec, err := NewCodec(acc.Name(), got)
		if err != nil {
			t.Fatal(err)
		}
		x := multiset.New("a", "b")
		a, err := acc.Setup(x)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := acc.ProveDisjoint(x, multiset.New("c"))
		if err != nil {
			t.Fatal(err)
		}
		da, err := codec.AccFromBytes(acc.AccBytes(a))
		if err != nil || !acc.AccEqual(da, a) {
			t.Fatalf("%s: digest does not decode with the named codec: %v", acc.Name(), err)
		}
		dp, err := codec.ProofFromBytes(acc.ProofBytes(pf))
		if err != nil || string(codec.ProofBytes(dp)) != string(acc.ProofBytes(pf)) {
			t.Fatalf("%s: proof does not decode with the named codec: %v", acc.Name(), err)
		}
	}
	if _, err := NewCodec("acc3", pr); err == nil {
		t.Fatal("unknown construction accepted")
	}
	if _, err := ParamsOf(wrappedAcc{}); err == nil {
		t.Fatal("ParamsOf of an empty decorator succeeded")
	}
}
