package core

import (
	"context"
	"testing"
)

func TestVOSizeComponents(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, _ := buildTestChain(t, acc, ModeBoth, 8)
	// All-mismatch query: the VO should contain skips, whose size is
	// accounted.
	q := Query{StartBlock: 0, EndBlock: 7, Bool: CNF{KeywordClause("tesla")}, Width: testWidth}
	vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	hasSkip := false
	for i := range vo.Blocks {
		if vo.Blocks[i].Skip != nil {
			hasSkip = true
		}
	}
	if !hasSkip {
		t.Fatal("expected at least one skip")
	}
	if vo.SizeBytes(acc) <= 0 {
		t.Fatal("size must be positive")
	}
	// Results are excluded from VO size: an all-results query's VO must
	// be smaller than the raw objects it certifies.
	q2 := sedanBenzQuery(0, 7)
	vo2, err := node.SP(false).TimeWindowQuery(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	objBytes := 0
	for _, o := range vo2.Results() {
		objBytes += len(o.Bytes())
	}
	if objBytes == 0 {
		t.Fatal("no results")
	}
}

func TestVOResultsTraversalOrder(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, _ := buildTestChain(t, acc, ModeIntra, 3)
	q := sedanBenzQuery(0, 2)
	vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	res := vo.Results()
	if len(res) != 3 {
		t.Fatalf("results %d", len(res))
	}
	// Traversal is newest block first.
	if !(res[0].TS >= res[1].TS && res[1].TS >= res[2].TS) {
		t.Errorf("results not newest-first: %v", res)
	}
}
