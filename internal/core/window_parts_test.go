package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// splitWindow answers a window as several independently-proved parts,
// descending, the way a degraded answer's serving runs are.
func splitWindow(t *testing.T, node *FullNode, q Query, cuts []int) []WindowPart {
	t.Helper()
	parts := make([]WindowPart, 0, len(cuts)+1)
	lo := q.StartBlock
	// Each cut c starts a part; the part below it ends at c-1.
	ends := []int{q.EndBlock}
	for _, c := range cuts {
		ends = append(ends, c-1)
	}
	for i, end := range ends {
		start := lo
		if i < len(cuts) {
			start = cuts[i]
		}
		sub := q
		sub.StartBlock, sub.EndBlock = start, end
		vo, err := node.SP(false).TimeWindowQuery(context.Background(), sub)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, WindowPart{Start: start, End: end, VO: vo})
	}
	return parts
}

// TestVerifyWindowPartsMatchesWhole checks that a window answered as
// split parts verifies through one batched union flush and yields the
// same results as the monolithic single-VO answer.
func TestVerifyWindowPartsMatchesWhole(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeBoth, 6)
	ver := &Verifier{Acc: acc, Light: light}
	q := sedanBenzQuery(0, 5)

	whole, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ver.VerifyTimeWindow(q, whole)
	if err != nil {
		t.Fatal(err)
	}

	for _, cuts := range [][]int{
		{},        // one part: the degenerate sharding
		{3},       // two parts [3,5] + [0,2]
		{4, 2},    // three parts [4,5] + [2,3] + [0,1]
		{5, 3, 1}, // four parts down to a single-block head
	} {
		parts := splitWindow(t, node, q, cuts)
		got, err := ver.VerifyWindowParts(q, parts)
		if err != nil {
			t.Fatalf("cuts %v: %v", cuts, err)
		}
		if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
			t.Fatalf("cuts %v: results diverge\n got %v\nwant %v", cuts, got, want)
		}
	}
}

// TestVerifyWindowPartsRejectsBadTiling exhausts the dishonest part
// shapes: any gap, overlap, reordering, or missing VO must surface as
// a completeness violation before a single pairing is spent.
func TestVerifyWindowPartsRejectsBadTiling(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeBoth, 6)
	ver := &Verifier{Acc: acc, Light: light}
	q := sedanBenzQuery(0, 5)
	honest := splitWindow(t, node, q, []int{4, 2}) // [4,5] [2,3] [0,1]

	cases := map[string][]WindowPart{
		"empty":            {},
		"gap in middle":    {honest[0], honest[2]},
		"ascending order":  {honest[2], honest[1], honest[0]},
		"duplicated part":  {honest[0], honest[0], honest[1], honest[2]},
		"missing tail":     {honest[0], honest[1]},
		"nil VO":           {{Start: honest[0].Start, End: honest[0].End, VO: nil}},
		"overhanging head": {{Start: 4, End: 7, VO: honest[0].VO}},
	}
	for name, parts := range cases {
		if _, err := ver.VerifyWindowParts(q, parts); !errors.Is(err, ErrCompleteness) {
			t.Errorf("%s: err = %v, want ErrCompleteness", name, err)
		}
	}
}

// TestVerifyWindowPartsSharesOneFlush verifies the union path really
// batches: honest parts verified with Batch-mode proofs still pass
// (the per-part checks land in one shared collector).
func TestVerifyWindowPartsSharesOneFlush(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeBoth, 4)
	ver := &Verifier{Acc: acc, Light: light}
	q := sedanBenzQuery(0, 3)

	var parts []WindowPart
	for _, span := range [][2]int{{2, 3}, {0, 1}} {
		sub := q
		sub.StartBlock, sub.EndBlock = span[0], span[1]
		vo, err := node.SP(true).TimeWindowQuery(context.Background(), sub) // batched SP proofs
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, WindowPart{Start: span[0], End: span[1], VO: vo})
	}
	res, err := ver.VerifyWindowParts(q, parts)
	if err != nil {
		t.Fatalf("batched parts: %v", err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
}
