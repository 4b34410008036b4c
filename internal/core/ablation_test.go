package core

import (
	"context"
	"testing"

	"github.com/vchain-go/vchain/internal/chain"
)

// clusteredVsPositional builds two chains over data with strong
// pairwise similarity and compares VO sizes for a query that matches
// half the similarity classes.
func clusteredVsPositional(t *testing.T, noCluster bool) int {
	t.Helper()
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeIntra, Width: testWidth, NoCluster: noCluster}
	node := NewFullNode(0, b)
	// Interleave two similarity classes so positional pairing mixes
	// them while Jaccard clustering separates them.
	for blk := 0; blk < 4; blk++ {
		var objs []chain.Object
		for i := 0; i < 4; i++ {
			id := chain.ObjectID(blk*10 + i + 1)
			if i%2 == 0 {
				objs = append(objs, chain.Object{ID: id, TS: int64(blk), V: []int64{2}, W: []string{"classA", "shared"}})
			} else {
				objs = append(objs, chain.Object{ID: id, TS: int64(blk), V: []int64{12}, W: []string{"classB", "shared"}})
			}
		}
		if _, err := node.MineBlock(objs, int64(blk)); err != nil {
			t.Fatal(err)
		}
	}
	light := chain.NewLightStore(0)
	if err := light.Sync(node.Store.Headers()); err != nil {
		t.Fatal(err)
	}
	q := Query{StartBlock: 0, EndBlock: 3, Bool: CNF{KeywordClause("classA")}, Width: testWidth}
	vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 8 { // 2 classA objects per block
		t.Fatalf("results %d, want 8", len(res))
	}
	return vo.SizeBytes(acc)
}

// TestClusteringAblation quantifies the DESIGN.md claim behind Alg. 2:
// Jaccard clustering lets whole subtrees be pruned, shrinking the VO
// relative to positional pairing. Correctness holds either way.
func TestClusteringAblation(t *testing.T) {
	clustered := clusteredVsPositional(t, false)
	positional := clusteredVsPositional(t, true)
	if clustered >= positional {
		t.Errorf("clustering did not help: clustered VO %d B vs positional %d B",
			clustered, positional)
	}
}
