package core

import (
	"context"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
)

// BenchmarkVerifyTimeWindow measures the light client's end-to-end VO
// verification: `sequential` is the paper's baseline (two pairings per
// disjointness proof, checked during the walk) and `batched` the
// two-phase engine (structural walk, then randomized pairing-product
// batches spread by par.For). The chain/query shape keeps dozens of
// mismatch proofs per VO — the regime a window query over
// keyword-sparse data produces. These VOs are the toy preset's and
// unbatched; `acc2-default/batched` verifies the shape every front end
// serves: a batched walk's VO (aggregated proofs) at the default
// preset.
func BenchmarkVerifyTimeWindow(b *testing.B) {
	for _, accName := range []string{"acc1", "acc2"} {
		acc := testAccs(b)[accName]
		node, light := buildTestChain(b, acc, ModeIntra, 8)
		q := sedanBenzQuery(0, 7)
		vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		cases := []struct {
			name string
			v    *Verifier
		}{
			{"sequential", &Verifier{Acc: acc, Light: light, Sequential: true}},
			{"batched", &Verifier{Acc: acc, Light: light}},
		}
		for _, tc := range cases {
			b.Run(accName+"/"+tc.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := tc.v.VerifyTimeWindow(q, vo); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	acc := accumulator.KeyGenCon2Deterministic(pairing.Default(), 256, accumulator.HashEncoder{Q: 256}, []byte("e2e"))
	node, light := buildTestChain(b, acc, ModeIntra, 8)
	q := sedanBenzQuery(0, 7)
	vo, err := node.SP(true).TimeWindowQuery(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	v := &Verifier{Acc: acc, Light: light}
	b.Run("acc2-default/batched", func(b *testing.B) {
		for b.Loop() {
			if _, err := v.VerifyTimeWindow(q, vo); err != nil {
				b.Fatal(err)
			}
		}
	})
}
