package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// degradedAnswer proves the window minus the gap heights as descending
// parts, the way the window planner's degraded path does.
func degradedAnswer(t *testing.T, node *FullNode, q Query, gaps []Gap) []WindowPart {
	t.Helper()
	inGap := func(h int) bool {
		for _, g := range gaps {
			if h >= g.Start && h <= g.End {
				return true
			}
		}
		return false
	}
	var parts []WindowPart
	end := -1
	for h := q.EndBlock; h >= q.StartBlock; h-- {
		if inGap(h) {
			end = -1
			continue
		}
		if end < 0 {
			end = h
		}
		if h == q.StartBlock || inGap(h-1) {
			sub := q
			sub.StartBlock, sub.EndBlock = h, end
			vo, err := node.SP(false).TimeWindowQuery(context.Background(), sub)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, WindowPart{Start: h, End: end, VO: vo})
			end = -1
		}
	}
	return parts
}

// TestVerifyDegradedGapTilings runs the gap-aware tiling check over
// every gap position: start, middle, end, multiple gaps, and the
// whole window gone. Each shape must verify (returning ErrDegraded
// plus the provable objects), and the covered-block accounting must
// hold.
func TestVerifyDegradedGapTilings(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeBoth, 6)
	ver := &Verifier{Acc: acc, Light: light}
	q := sedanBenzQuery(0, 5)

	cases := []struct {
		name string
		gaps []Gap
	}{
		{"gap at window start", []Gap{{Start: 0, End: 1}}},
		{"gap in the middle", []Gap{{Start: 2, End: 3}}},
		{"gap at window end", []Gap{{Start: 4, End: 5}}},
		{"two gaps", []Gap{{Start: 4, End: 4}, {Start: 1, End: 1}}},
		{"single surviving block", []Gap{{Start: 4, End: 5}, {Start: 0, End: 2}}},
		{"whole window gone", []Gap{{Start: 0, End: 5}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parts := degradedAnswer(t, node, q, tc.gaps)
			res, err := ver.VerifyDegraded(q, parts, tc.gaps)
			if !errors.Is(err, ErrDegraded) {
				t.Fatalf("err = %v, want ErrDegraded", err)
			}
			if res == nil {
				t.Fatal("no result alongside ErrDegraded")
			}
			missing := 0
			for _, g := range tc.gaps {
				missing += g.Blocks()
			}
			if got, want := res.Covered(), 6-missing; got != want {
				t.Fatalf("covered %d blocks, want %d", got, want)
			}
			// Every returned object must come from a covered height:
			// re-verify each surviving sub-window strictly and compare.
			want := 0
			for _, p := range parts {
				sub := q
				sub.StartBlock, sub.EndBlock = p.Start, p.End
				objs, err := ver.VerifyWindowParts(sub, []WindowPart{p})
				if err != nil {
					t.Fatal(err)
				}
				want += len(objs)
			}
			if len(res.Objects) != want {
				t.Fatalf("degraded answer has %d objects, sub-windows have %d", len(res.Objects), want)
			}
		})
	}
}

// TestVerifyDegradedNoGapsMatchesStrict pins the compatibility
// contract: with no gaps, VerifyDegraded is exactly VerifyWindowParts
// (same objects, nil error).
func TestVerifyDegradedNoGapsMatchesStrict(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeBoth, 6)
	ver := &Verifier{Acc: acc, Light: light}
	q := sedanBenzQuery(0, 5)

	parts := splitWindow(t, node, q, []int{4, 2})
	res, err := ver.VerifyDegraded(q, parts, nil)
	if err != nil {
		t.Fatalf("gap-free degraded verification: %v", err)
	}
	if len(res.Gaps) != 0 || res.Covered() != 6 {
		t.Fatalf("gap-free result misreports coverage: %+v", res)
	}
	want, err := ver.VerifyWindowParts(q, parts)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v", res.Objects) != fmt.Sprintf("%v", want) {
		t.Fatal("degraded and strict answers diverge with no gaps")
	}
}

// TestVerifyDegradedRejectsBadTiling exhausts the dishonest shapes a
// gap-reporting SP could try: overlapping a declared gap with a proved
// part, shrinking the answer without declaring a gap, gaps out of
// order, and gaps beyond the window must all be completeness errors —
// a gap can never hide a covered height or smuggle one in twice.
func TestVerifyDegradedRejectsBadTiling(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeBoth, 6)
	ver := &Verifier{Acc: acc, Light: light}
	q := sedanBenzQuery(0, 5)

	gaps := []Gap{{Start: 2, End: 3}}
	parts := degradedAnswer(t, node, q, gaps) // [4,5] + [0,1]

	cases := []struct {
		name  string
		parts []WindowPart
		gaps  []Gap
	}{
		{"undeclared gap", parts, nil},
		{"part dropped silently", parts[1:], gaps},
		{"gap overlaps a part", parts, []Gap{{Start: 1, End: 3}}},
		{"gap beyond the window", parts, []Gap{{Start: 2, End: 3}, {Start: -2, End: -1}}},
		{"gaps out of order", degradedAnswer(t, node, q, []Gap{{4, 4}, {1, 1}}), []Gap{{1, 1}, {4, 4}}},
		{"surplus gap", parts, []Gap{{Start: 2, End: 3}, {Start: 2, End: 3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ver.VerifyDegraded(q, tc.parts, tc.gaps); !errors.Is(err, ErrCompleteness) {
				t.Fatalf("err = %v, want ErrCompleteness", err)
			}
		})
	}
}
