package accumulator

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/multiset"
)

// batchAccs returns both constructions over the shared toy parameters.
func batchAccs(t testing.TB) map[string]Accumulator {
	t.Helper()
	pr := pairing.Toy()
	return map[string]Accumulator{
		"acc1": KeyGenCon1Deterministic(pr, 64, []byte("batch")),
		"acc2": KeyGenCon2Deterministic(pr, 256, HashEncoder{Q: 256}, []byte("batch")),
	}
}

// checkPool builds n valid (acc1, acc2, proof) triples over distinct
// disjoint multiset pairs, cycling through a small set of genuinely
// proved instances (verification cost is what the batch tests probe;
// proof generation is not).
func checkPool(t testing.TB, acc Accumulator, n int) []DisjointCheck {
	t.Helper()
	const distinct = 8
	base := make([]DisjointCheck, 0, distinct)
	for i := 0; i < distinct; i++ {
		// The toy hash-encoder domain is small enough for occasional
		// collisions between the two multisets; retry with a fresh
		// suffix until the pair is genuinely disjoint after encoding.
		for try := 0; ; try++ {
			if try == 32 {
				t.Fatal("could not find disjoint multisets (encoder domain too small?)")
			}
			w := multiset.New(
				fmt.Sprintf("w%d.%d-a", i, try),
				fmt.Sprintf("w%d.%d-b", i, try),
				fmt.Sprintf("w%d.%d-c", i, try))
			cl := multiset.New(fmt.Sprintf("c%d.%d-a", i, try), fmt.Sprintf("c%d.%d-b", i, try))
			pf, err := acc.ProveDisjoint(w, cl)
			if errors.Is(err, ErrNotDisjoint) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			aw, err := acc.Setup(w)
			if err != nil {
				t.Fatal(err)
			}
			ac, err := acc.Setup(cl)
			if err != nil {
				t.Fatal(err)
			}
			base = append(base, DisjointCheck{Acc1: aw, Acc2: ac, Proof: pf})
			break
		}
	}
	out := make([]DisjointCheck, n)
	for i := range out {
		out[i] = base[i%distinct]
	}
	return out
}

// corrupt returns a tampered copy of a check that must fail individual
// verification. Variant selects which field is attacked.
func corrupt(t testing.TB, acc Accumulator, ch DisjointCheck, variant int) DisjointCheck {
	t.Helper()
	other, err := acc.Setup(multiset.New("corrupt-x", "corrupt-y"))
	if err != nil {
		t.Fatal(err)
	}
	switch variant % 4 {
	case 0: // flipped proof point
		ch.Proof.F1, ch.Proof.F2 = ch.Proof.F2, ch.Proof.F1
		if ch.Proof.F1.Equal(ch.Proof.F2) {
			ch.Proof.F1 = other.A
		}
	case 1: // swapped accumulator
		ch.Acc1 = other
	case 2: // swapped sides
		ch.Acc1, ch.Acc2 = ch.Acc2, ch.Acc1
	case 3: // zeroed proof
		ch.Proof = Proof{}
	}
	if acc.VerifyDisjoint(ch.Acc1, ch.Acc2, ch.Proof) {
		t.Fatalf("corruption variant %d produced a still-valid check", variant)
	}
	return ch
}

// TestVerifyDisjointBatchProperty is the batch-soundness property: a
// randomized batch verification accepts iff every member proof
// verifies individually, exercised for k ∈ {2, 16, 256} including the
// 1-bad-in-k case at every position for small k and random positions
// for large k.
func TestVerifyDisjointBatchProperty(t *testing.T) {
	for name, acc := range batchAccs(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(97))
			for _, k := range []int{2, 16, 256} {
				checks := checkPool(t, acc, k)
				// Sanity: every member verifies individually.
				for i, ch := range checks {
					if !acc.VerifyDisjoint(ch.Acc1, ch.Acc2, ch.Proof) {
						t.Fatalf("k=%d: member %d individually invalid", k, i)
					}
				}
				if !acc.VerifyDisjointBatch(checks) {
					t.Errorf("k=%d: all-valid batch rejected", k)
				}

				// 1-bad-in-k: every position for k=2, a sample for larger k.
				positions := []int{0, 1}
				if k > 2 {
					positions = []int{0, k / 2, k - 1, rng.Intn(k)}
				}
				for vi, bad := range positions {
					tampered := make([]DisjointCheck, k)
					copy(tampered, checks)
					tampered[bad] = corrupt(t, acc, tampered[bad], vi)
					if acc.VerifyDisjointBatch(tampered) {
						t.Errorf("k=%d: batch with bad member %d accepted", k, bad)
					}
				}
			}
		})
	}
}

func TestVerifyDisjointBatchEdges(t *testing.T) {
	for name, acc := range batchAccs(t) {
		t.Run(name, func(t *testing.T) {
			if !acc.VerifyDisjointBatch(nil) {
				t.Error("empty batch must be vacuously true")
			}
			checks := checkPool(t, acc, 1)
			if !acc.VerifyDisjointBatch(checks) {
				t.Error("singleton valid batch rejected")
			}
			bad := corrupt(t, acc, checks[0], 1)
			if acc.VerifyDisjointBatch([]DisjointCheck{bad}) {
				t.Error("singleton invalid batch accepted")
			}
		})
	}
}

// TestVerifyDisjointBatchAllBad guards against a cancellation bug: two
// wrongs must not make a right even when the same corruption appears
// twice (the independent randomizers prevent cross-equation
// cancellation).
func TestVerifyDisjointBatchAllBad(t *testing.T) {
	for name, acc := range batchAccs(t) {
		t.Run(name, func(t *testing.T) {
			checks := checkPool(t, acc, 2)
			bad := corrupt(t, acc, checks[0], 2)
			if acc.VerifyDisjointBatch([]DisjointCheck{bad, bad}) {
				t.Error("doubly-corrupted batch accepted")
			}
		})
	}
}

// TestAccProofRoundTrip pins the decode side of the wire encodings.
func TestAccProofRoundTrip(t *testing.T) {
	for name, acc := range batchAccs(t) {
		t.Run(name, func(t *testing.T) {
			checks := checkPool(t, acc, 1)
			ch := checks[0]
			for _, a := range []Acc{ch.Acc1, ch.Acc2} {
				got, err := acc.AccFromBytes(acc.AccBytes(a))
				if err != nil {
					t.Fatal(err)
				}
				if !acc.AccEqual(got, a) {
					t.Fatal("acc round-trip changed value")
				}
			}
			got, err := acc.ProofFromBytes(acc.ProofBytes(ch.Proof))
			if err != nil {
				t.Fatal(err)
			}
			if !got.F1.Equal(ch.Proof.F1) || !got.F2.Equal(ch.Proof.F2) {
				t.Fatal("proof round-trip changed value")
			}
			// Infinity-bearing values keep the self-delimiting framing
			// honest.
			inf := Acc{A: ch.Acc1.A}
			inf.B.Inf = true
			if name == "acc2" {
				got, err := acc.AccFromBytes(acc.AccBytes(inf))
				if err != nil {
					t.Fatal(err)
				}
				if !acc.AccEqual(got, inf) {
					t.Fatal("infinity acc round-trip changed value")
				}
			}
			if _, err := acc.AccFromBytes(nil); err == nil {
				t.Error("empty acc encoding accepted")
			}
			if _, err := acc.ProofFromBytes([]byte{7}); err == nil {
				t.Error("garbage proof encoding accepted")
			}
		})
	}
}
