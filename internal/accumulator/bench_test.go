package accumulator

import (
	"errors"
	"fmt"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/multiset"
)

// benchMultiset builds a deterministic multiset of n distinct elements.
func benchMultiset(prefix string, n int) multiset.Multiset {
	elems := make([]string, n)
	for i := range elems {
		elems[i] = fmt.Sprintf("%s-%04d", prefix, i)
	}
	return multiset.New(elems...)
}

// BenchmarkProveDisjointCon1 measures the q-SDH disjointness proof for
// a window-sized multiset against a clause-sized one — the SP's hot
// operation under Construction 1. The toy preset (128-bit field) keeps
// CI fast; the default preset (512-bit field, the README's evaluation
// setting) is where Jacobian coordinates pay off hardest, because
// modular inversions cost ~11 multiplications there versus ~3.5 on the
// toy field.
func BenchmarkProveDisjointCon1(b *testing.B) {
	w := benchMultiset("w", 64)
	clause := benchMultiset("c", 4)
	for _, preset := range []string{"toy", "default"} {
		acc := KeyGenCon1Deterministic(pairing.ByName(preset), 128, []byte("bench"))
		b.Run(preset, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := acc.ProveDisjoint(w, clause); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProveDisjointCon2 measures the q-DHE disjointness proof:
// at toy and default, 64 distinct elements against 4; at shape, the
// default preset in the shape measured under the benchmark's
// gob_prove traffic (|X1| ≈ 81, |X2| ≈ 5, ~300 distinct key indices,
// multiplicities of a few bits): 81 elements, every fifth one twice,
// against 5.
func BenchmarkProveDisjointCon2(b *testing.B) {
	shape := benchMultiset("w", 81)
	for i := 0; i < 81; i += 5 {
		shape[i].Count++
	}
	cases := []struct {
		name, preset string
		x1, x2       multiset.Multiset
	}{
		{"toy", "toy", benchMultiset("w", 64), benchMultiset("c", 4)},
		{"default", "default", benchMultiset("w", 64), benchMultiset("c", 4)},
		{"default/shape", "default", shape, benchMultiset("c", 5)},
	}
	for _, tc := range cases {
		q := 4096
		acc := KeyGenCon2Deterministic(pairing.ByName(tc.preset), q, HashEncoder{Q: q}, []byte("bench"))
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := acc.ProveDisjoint(tc.x1, tc.x2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSetupCon1 measures accumulation (miner-side ADS cost).
func BenchmarkSetupCon1(b *testing.B) {
	acc := KeyGenCon1Deterministic(pairing.Toy(), 256, []byte("bench"))
	w := benchMultiset("w", 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := acc.Setup(w); err != nil {
			b.Fatal(err)
		}
	}
}

// benchChecks builds k valid disjointness checks in the verifier's
// workload shapes: check i carries node digest i%digests, verified
// against clause accumulator i%clauses. A query answer has a distinct
// digest per check against the query's few clauses (a
// sedan∧(benz∨bmw)-style query has 2–4); a subscription block checks
// one digest against a clause per subscription.
func benchChecks(b *testing.B, acc Accumulator, k, clauses, digests int) []DisjointCheck {
	clAccs := make([]Acc, clauses)
	clSets := make([]multiset.Multiset, clauses)
	for j := range clAccs {
		clSets[j] = benchMultiset(fmt.Sprintf("c%d", j), 2)
		var err error
		clAccs[j], err = acc.Setup(clSets[j])
		if err != nil {
			b.Fatal(err)
		}
	}
	checks := make([]DisjointCheck, k)
	for d := range digests {
		// Retry on toy-domain hash collisions between the window and
		// any clause it meets (see checkPool in batch_test.go).
		for try := 0; ; try++ {
			if try == 32 {
				b.Fatal("could not find disjoint multisets")
			}
			w := benchMultiset(fmt.Sprintf("w%d.%d.%d", k, d, try), 3)
			ok := true
			for i := d; i < k && ok; i += digests {
				pf, err := acc.ProveDisjoint(w, clSets[i%clauses])
				if err != nil && !errors.Is(err, ErrNotDisjoint) {
					b.Fatal(err)
				}
				ok = err == nil
				checks[i] = DisjointCheck{Acc2: clAccs[i%clauses], Proof: pf}
			}
			if !ok {
				continue
			}
			aw, err := acc.Setup(w)
			if err != nil {
				b.Fatal(err)
			}
			for i := d; i < k; i += digests {
				checks[i].Acc1 = aw
			}
			break
		}
	}
	return checks
}

// BenchmarkVerifyDisjointBatch compares the client's two verification
// paths at growing batch sizes: `sequential` is the per-proof loop
// (one pairing-product check per proof), `batched` is
// VerifyDisjointBatch (one Miller loop per distinct second argument,
// one shared final exponentiation, one multi-scalar right-hand side).
func BenchmarkVerifyDisjointBatch(b *testing.B) {
	pr := pairing.Toy()
	accs := map[string]Accumulator{
		"acc1": KeyGenCon1Deterministic(pr, 64, []byte("bench")),
		"acc2": KeyGenCon2Deterministic(pr, 256, HashEncoder{Q: 256}, []byte("bench")),
	}
	for _, name := range []string{"acc1", "acc2"} {
		acc := accs[name]
		for _, k := range []int{16, 256} {
			checks := benchChecks(b, acc, k, 4, k)
			b.Run(fmt.Sprintf("%s/%d/sequential", name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, ch := range checks {
						if !acc.VerifyDisjoint(ch.Acc1, ch.Acc2, ch.Proof) {
							b.Fatal("valid check rejected")
						}
					}
				}
			})
			b.Run(fmt.Sprintf("%s/%d/batched", name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if !acc.VerifyDisjointBatch(checks) {
						b.Fatal("valid batch rejected")
					}
				}
			})
		}
	}
}

// BenchmarkVerifyDisjointBatchDefault runs acc2's batch check at the
// default preset in the shapes clients meet: one check (a subscription
// publication), two, a gob_prove-sized answer of 12 checks over 3
// clauses, 40 checks over 8 clauses, and a subscription block's one
// digest against 10 clauses.
func BenchmarkVerifyDisjointBatchDefault(b *testing.B) {
	acc := KeyGenCon2Deterministic(pairing.Default(), 256, HashEncoder{Q: 256}, []byte("bench"))
	for _, shape := range []struct{ k, clauses, digests int }{{1, 1, 1}, {2, 1, 2}, {12, 3, 12}, {40, 8, 40}, {10, 10, 1}} {
		checks := benchChecks(b, acc, shape.k, shape.clauses, shape.digests)
		name := fmt.Sprintf("k=%d/clauses=%d", shape.k, shape.clauses)
		if shape.digests < shape.k {
			name += fmt.Sprintf("/digests=%d", shape.digests)
		}
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				if !acc.VerifyDisjointBatch(checks) {
					b.Fatal("valid batch rejected")
				}
			}
		})
	}
}

// BenchmarkKeyGen measures trusted setup: q (resp. 2q−2) fixed-base
// scalar multiplications.
func BenchmarkKeyGen(b *testing.B) {
	pr := pairing.Toy()
	b.Run("con1/q=256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			KeyGenCon1Deterministic(pr, 256, []byte("bench"))
		}
	})
	b.Run("con2/q=256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			KeyGenCon2Deterministic(pr, 256, HashEncoder{Q: 256}, []byte("bench"))
		}
	})
}
