package subscribe

import (
	"testing"

	"github.com/vchain-go/vchain/internal/core"
)

// fig8Queries reproduces the four queries of Fig. 8 over a 2-D 2-bit
// space [0,3]×[0,3].
func fig8Queries() map[int]core.Query {
	mk := func(lo, hi []int64, kws ...core.Clause) core.Query {
		return core.Query{Range: &core.RangeCond{Lo: lo, Hi: hi}, Bool: kws, Width: 2}
	}
	return map[int]core.Query{
		1: mk([]int64{0, 2}, []int64{1, 3}, core.KeywordClause("van"), core.KeywordClause("benz")),
		2: mk([]int64{0, 0}, []int64{1, 3}, core.KeywordClause("van"), core.KeywordClause("bmw")),
		3: mk([]int64{0, 2}, []int64{0, 2}, core.KeywordClause("sedan"), core.KeywordClause("audi")),
		4: mk([]int64{2, 0}, []int64{3, 3}, core.KeywordClause("sedan"), core.KeywordClause("benz")),
	}
}

func TestIPTreeBuildFig8(t *testing.T) {
	tree, err := NewIPTree(2, 2, 4, fig8Queries())
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() < 1 {
		t.Error("tree did not split despite partial covers")
	}
	// Root: everything is partial except none (no query covers the
	// whole space).
	if len(tree.grid().full) != 0 {
		t.Errorf("root full covers: %v", tree.grid().full)
	}
	if len(tree.grid().partial) != 4 {
		t.Errorf("root partial covers: %v", tree.grid().partial)
	}
}

func TestIPTreeClassifyPointFig8(t *testing.T) {
	tree, err := NewIPTree(2, 2, 4, fig8Queries())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's object o = (0, 2): inside q1's cell, inside q3's
	// range, outside q2 ([0,1]×[0,... wait q2 = [(0,0),(1,3)] contains
	// (0,2); q4 = [(2,0),(3,3)] excludes x=0.
	cls := tree.ClassifyPoint([]int64{0, 2})
	matched := map[int]bool{}
	for _, id := range cls.RangeMatched {
		matched[id] = true
	}
	mismatched := map[int]bool{}
	for _, id := range cls.RangeMismatched {
		mismatched[id] = true
	}
	for _, id := range []int{1, 2, 3} {
		if !matched[id] {
			t.Errorf("q%d should range-match (0,2); got matched=%v mismatched=%v", id, cls.RangeMatched, cls.RangeMismatched)
		}
	}
	if !mismatched[4] {
		t.Errorf("q4 should range-mismatch (0,2)")
	}
}

func TestIPTreeClassifyAgainstDirectEvaluation(t *testing.T) {
	qs := fig8Queries()
	tree, err := NewIPTree(2, 2, 6, qs)
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(0); x < 4; x++ {
		for y := int64(0); y < 4; y++ {
			cls := tree.ClassifyPoint([]int64{x, y})
			got := map[int]bool{}
			for _, id := range cls.RangeMatched {
				got[id] = true
			}
			for _, id := range cls.RangeMismatched {
				if got[id] {
					t.Fatalf("(%d,%d): q%d both matched and mismatched", x, y, id)
				}
				got[id] = false
			}
			for id, q := range qs {
				want := q.Range.Contains([]int64{x, y})
				gotV, ok := got[id]
				if !ok {
					t.Fatalf("(%d,%d): q%d undecided", x, y, id)
				}
				if gotV != want {
					t.Fatalf("(%d,%d): q%d classified %v, want %v", x, y, id, gotV, want)
				}
			}
		}
	}
}

func TestIPTreeBCIFSharing(t *testing.T) {
	// q1 and q2 share the clause {van}: the BCIF of a cell they both
	// fully cover must group them.
	tree, err := NewIPTree(2, 2, 4, fig8Queries())
	if err != nil {
		t.Fatal(err)
	}
	// Find a node fully covered by both q1 and q2 (the upper-left area
	// x∈[0,1], y∈[2,3] is inside both rectangles).
	var hit *ipNode
	var walk func(n *ipNode)
	walk = func(n *ipNode) {
		if hit != nil {
			return
		}
		has1, has2 := false, false
		for _, id := range n.full {
			if id == 1 {
				has1 = true
			}
			if id == 2 {
				has2 = true
			}
		}
		if has1 && has2 {
			hit = n
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tree.grid())
	if hit == nil {
		t.Fatal("no cell fully covered by q1 and q2")
	}
	vanKey := core.KeywordClause("van").Key()
	e, ok := hit.bcif[vanKey]
	if !ok {
		t.Fatal("shared clause {van} missing from BCIF")
	}
	if len(e.queries) != 2 {
		t.Errorf("BCIF {van} groups %v, want q1 and q2", e.queries)
	}
}

func TestClauseGroupsGlobal(t *testing.T) {
	tree, err := NewIPTree(2, 2, 4, fig8Queries())
	if err != nil {
		t.Fatal(err)
	}
	groups, err := tree.ClauseGroups()
	if err != nil {
		t.Fatal(err)
	}
	// Boolean clauses: van(q1,q2), benz(q1,q4), bmw(q2), sedan(q3,q4),
	// audi(q3) — plus range-cover clauses. Check the shared ones.
	byKey := map[string][]int{}
	for _, g := range groups {
		byKey[g.Clause.Key()] = g.Queries
	}
	if got := byKey[core.KeywordClause("van").Key()]; len(got) != 2 {
		t.Errorf("van shared by %v", got)
	}
	if got := byKey[core.KeywordClause("benz").Key()]; len(got) != 2 {
		t.Errorf("benz shared by %v", got)
	}
	if got := byKey[core.KeywordClause("audi").Key()]; len(got) != 1 {
		t.Errorf("audi shared by %v", got)
	}
}

func TestIPTreeValidation(t *testing.T) {
	if _, err := NewIPTree(0, 2, 4, nil); err == nil {
		t.Error("0 dims accepted")
	}
	if _, err := NewIPTree(1, 0, 4, nil); err == nil {
		t.Error("0 width accepted")
	}
	if _, err := NewIPTree(1, 63, 4, nil); err == nil {
		t.Error("63-bit width accepted")
	}
	// Empty query set is fine.
	tree, err := NewIPTree(1, 4, 4, map[int]core.Query{})
	if err != nil {
		t.Fatal(err)
	}
	cls := tree.ClassifyPoint([]int64{3})
	if len(cls.RangeMatched)+len(cls.RangeMismatched) != 0 {
		t.Error("empty tree classified something")
	}
}

func TestIPTreeDepthCap(t *testing.T) {
	// A query with a 1-cell range forces deep splitting; the cap must
	// hold.
	qs := map[int]core.Query{
		0: {Range: &core.RangeCond{Lo: []int64{5}, Hi: []int64{5}}, Bool: core.CNF{core.KeywordClause("x")}, Width: 6},
	}
	tree, err := NewIPTree(1, 6, 3, qs)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() > 3 {
		t.Errorf("depth %d exceeds cap 3", tree.Depth())
	}
	// Classification still correct via leaf fallback.
	cls := tree.ClassifyPoint([]int64{5})
	if len(cls.RangeMatched) != 1 {
		t.Error("point in range not matched")
	}
	cls = tree.ClassifyPoint([]int64{6})
	if len(cls.RangeMismatched) != 1 {
		t.Error("point outside range not mismatched")
	}
}
