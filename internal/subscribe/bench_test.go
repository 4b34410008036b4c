package subscribe

import (
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/workload"
)

// BenchmarkVerifyBlockPublications verifies one block's publications
// for 32 subscriptions over a pool of 8 shared clauses (each with its
// own range) on a 4SQ-shaped chain of 8-object blocks at the default
// preset: `per-publication` runs
// VerifyPublication once per subscription, `batch` runs
// core.Verifier.VerifySpans over all 32. The block's own checks and
// the distinct ones are reported per block.
func BenchmarkVerifyBlockPublications(b *testing.B) {
	ds, err := workload.Generate(workload.Config{Kind: workload.FSQ, Blocks: 4, ObjectsPerBlock: 8, Seed: 35})
	if err != nil {
		b.Fatal(err)
	}
	q := ds.Dims<<(ds.Width+1) + len(ds.Vocabulary) + 64
	acc := accumulator.KeyGenCon2Deterministic(pairing.Default(), q, accumulator.NewDictEncoder(q), []byte("bench"))
	node := core.NewFullNode(0, &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: 2, Width: ds.Width})
	engine := NewEngine(acc, Options{UseIPTree: true, Proofs: newProofs(acc)})
	queries := make(map[int]core.Query)
	for _, q := range ds.RandomQueries(32, workload.QueryConfig{SharedClausePool: 8, Seed: 35}) {
		id, err := engine.Register(q)
		if err != nil {
			b.Fatal(err)
		}
		queries[id] = q
	}
	var pubs []Publication
	for h, objs := range ds.Blocks {
		if _, err := node.MineBlock(objs, int64(h)); err != nil {
			b.Fatal(err)
		}
		if pubs, err = engine.ProcessBlock(adsAt(b, node, h), node); err != nil {
			b.Fatal(err)
		}
	}
	light := chain.NewLightStore(0)
	if err := light.Sync(node.Store.Headers()); err != nil {
		b.Fatal(err)
	}
	ver := &core.Verifier{Acc: acc, Light: light}
	spans := make([]core.Span, len(pubs))
	for i, p := range pubs {
		spans[i] = core.Span{Query: queries[p.QueryID], From: p.From, To: p.To, VO: p.VO}
	}
	counter := &countingAcc{Accumulator: acc}
	(&core.Verifier{Acc: counter, Light: light, Sequential: true}).VerifySpans(spans)
	checks := counter.checks
	counter.checks = 0
	(&core.Verifier{Acc: counter, Light: light}).VerifySpans(spans)
	distinct := counter.checks

	b.Run("per-publication", func(b *testing.B) {
		for b.Loop() {
			for i := range pubs {
				if _, err := VerifyPublication(ver, queries[pubs[i].QueryID], &pubs[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(pubs)), "pubs/block")
		b.ReportMetric(float64(checks), "checks/block")
	})
	b.Run("batch", func(b *testing.B) {
		for b.Loop() {
			for _, r := range ver.VerifySpans(spans) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
		b.ReportMetric(float64(len(pubs)), "pubs/block")
		b.ReportMetric(float64(distinct), "checks/block")
	})
}

// countingAcc counts the disjointness checks its verifier settles.
type countingAcc struct {
	accumulator.Accumulator
	checks int
}

func (c *countingAcc) VerifyDisjoint(acc1, acc2 accumulator.Acc, proof accumulator.Proof) bool {
	c.checks++
	return c.Accumulator.VerifyDisjoint(acc1, acc2, proof)
}

func (c *countingAcc) VerifyDisjointBatch(checks []accumulator.DisjointCheck) bool {
	c.checks += len(checks)
	return c.Accumulator.VerifyDisjointBatch(checks)
}
