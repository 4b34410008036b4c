package core_test

import (
	"context"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/workload"
)

// TestBatchedVOHasOneGroupPerClause: under acc2, a batched VO over a
// seeded 4SQ chain cites every proof through its clause's group, skips
// included, so it holds exactly one group per distinct clause it cites
// and no entry carries a clause or proof inline.
func TestBatchedVOHasOneGroupPerClause(t *testing.T) {
	ds, err := workload.Generate(workload.Config{Kind: workload.FSQ, Blocks: 48, ObjectsPerBlock: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	acc := accumulator.KeyGenCon2Deterministic(pairing.Toy(), 4096, accumulator.NewDictEncoder(4096), []byte("cite"))
	node := core.NewFullNode(0, &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: 3, Width: ds.Width})
	for h, objs := range ds.Blocks {
		if _, err := node.MineBlock(objs, int64(h)); err != nil {
			t.Fatal(err)
		}
	}
	light := chain.NewLightStore(0)
	if err := light.Sync(node.Store.Headers()); err != nil {
		t.Fatal(err)
	}
	ver := &core.Verifier{Acc: acc, Light: light}
	queries := ds.RandomQueries(40, workload.QueryConfig{Selectivity: 0.1, Seed: 7})
	groupedSkips := 0
	for i, q := range queries {
		q.StartBlock = i % (len(ds.Blocks) - 12)
		q.EndBlock = q.StartBlock + 11
		vo, err := node.SP(true).TimeWindowQuery(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ver.VerifyTimeWindow(q, vo); err != nil {
			t.Fatalf("q%d: %v", i, err)
		}
		cited := map[int]bool{}
		check := func(what string, c *core.Cite) {
			if c.Group < 0 || c.Clause != nil || c.Proof != nil {
				t.Errorf("q%d: a %s cites %+v, want its group's index alone", i, what, *c)
				return
			}
			cited[c.Group] = true
		}
		var walk func(n *core.NodeVO)
		walk = func(n *core.NodeVO) {
			if n == nil {
				return
			}
			if n.Kind == core.KindMismatch {
				check("mismatch node", &n.Cite)
			}
			walk(n.Left)
			walk(n.Right)
		}
		for _, b := range vo.Blocks {
			if b.Skip != nil {
				check("skip", &b.Skip.Cite)
				groupedSkips++
			}
			walk(b.Tree)
		}
		clauses := map[string]bool{}
		for _, g := range vo.Groups {
			clauses[g.Clause.Key()] = true
		}
		if len(vo.Groups) != len(cited) || len(clauses) != len(vo.Groups) {
			t.Errorf("q%d: %d groups for %d distinct clauses, %d of them cited", i, len(vo.Groups), len(clauses), len(cited))
		}
	}
	if groupedSkips == 0 {
		t.Fatal("no VO holds a skip: the fixture does not exercise skip citations")
	}
}
