package core

import (
	"context"
	"testing"
)

// BenchmarkVerifyTimeWindow measures the light client's end-to-end VO
// verification: `sequential` is the paper's baseline (two pairings per
// disjointness proof, checked during the walk) and `batched` the
// two-phase engine (structural walk, then randomized pairing-product
// batches spread by par.For). The chain/query shape keeps dozens of
// mismatch proofs per VO — the regime a window query over
// keyword-sparse data produces.
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
}
