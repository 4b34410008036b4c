package core

import (
	"testing"

	"github.com/vchain-go/vchain/internal/multiset"
)

func TestClauseCanonical(t *testing.T) {
	a := NewClause("b", "a", "b")
	if len(a) != 2 || a[0] != "a" || a[1] != "b" {
		t.Fatalf("not canonical: %v", a)
	}
	b := NewClause("a", "b")
	if !a.Equal(b) {
		t.Error("equal clauses not Equal")
	}
	if a.Equal(NewClause("a")) {
		t.Error("different clauses Equal")
	}
	if a.Key() == NewClause("a", "c").Key() {
		t.Error("distinct keys collide")
	}
}

func TestKeywordClauseNamespacing(t *testing.T) {
	c := KeywordClause("benz", "bmw")
	m := multiset.New("w:benz")
	if !c.Matches(m) {
		t.Error("namespaced keyword should match")
	}
	raw := multiset.New("benz")
	if c.Matches(raw) {
		t.Error("raw keyword must not match namespaced clause")
	}
}

func TestCNFMatchSemantics(t *testing.T) {
	// "Sedan" ∧ ("Benz" ∨ "BMW") — the running example of §5.1.
	f := CNF{KeywordClause("sedan"), KeywordClause("benz", "bmw")}
	match := multiset.New("w:sedan", "w:benz")
	if !f.Match(match) {
		t.Error("o1 {sedan, benz} should match")
	}
	for _, w := range []multiset.Multiset{
		multiset.New("w:sedan", "w:audi"), // o2
		multiset.New("w:van", "w:benz"),   // o3
		multiset.New("w:van", "w:bmw"),    // o4
	} {
		if f.Match(w) {
			t.Errorf("%v should mismatch", w)
		}
	}
}

func TestFindMismatchPicksSmallestClause(t *testing.T) {
	f := CNF{KeywordClause("benz", "bmw"), KeywordClause("sedan")}
	w := multiset.New("w:van", "w:audi") // mismatches both clauses
	cl, ok := f.FindMismatch(w)
	if !ok {
		t.Fatal("expected a mismatch")
	}
	if len(cl) != 1 || cl[0] != "w:sedan" {
		t.Errorf("expected smallest clause, got %v", cl)
	}
	// Matching multiset yields no clause.
	if _, ok := f.FindMismatch(multiset.New("w:sedan", "w:benz")); ok {
		t.Error("matching multiset reported a mismatch")
	}
}

func TestContainsClause(t *testing.T) {
	f := CNF{KeywordClause("a"), KeywordClause("b", "c")}
	if !f.ContainsClause(KeywordClause("c", "b")) {
		t.Error("order-insensitive membership failed")
	}
	if f.ContainsClause(KeywordClause("z")) {
		t.Error("foreign clause accepted")
	}
}

func TestRangeCondContains(t *testing.T) {
	r := &RangeCond{Lo: []int64{0, 10}, Hi: []int64{5, 20}}
	if !r.Contains([]int64{3, 15}) {
		t.Error("inside point rejected")
	}
	if r.Contains([]int64{6, 15}) || r.Contains([]int64{3, 9}) {
		t.Error("outside point accepted")
	}
	if r.Contains([]int64{3}) {
		t.Error("short vector accepted")
	}
	var nilRange *RangeCond
	if !nilRange.Contains([]int64{1}) {
		t.Error("nil range should accept everything")
	}
	// Extra dimensions beyond the predicate are ignored.
	if !r.Contains([]int64{3, 15, 99}) {
		t.Error("extra dimensions should be ignored")
	}
}

func TestQueryCNFComposition(t *testing.T) {
	q := Query{
		Range: &RangeCond{Lo: []int64{0}, Hi: []int64{6}},
		Bool:  CNF{KeywordClause("sedan")},
		Width: 3,
	}
	f, err := q.CNF()
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 2 {
		t.Fatalf("want range clause + bool clause, got %d", len(f))
	}
	// A query with no condition at all is invalid.
	if _, err := (Query{}).CNF(); err == nil {
		t.Error("empty query accepted")
	}
	// Bool-only and range-only queries are fine.
	if _, err := (Query{Bool: CNF{KeywordClause("x")}}).CNF(); err != nil {
		t.Error(err)
	}
	if _, err := (Query{Range: &RangeCond{Lo: []int64{1}, Hi: []int64{2}}}).CNF(); err != nil {
		t.Error(err)
	}
	// An empty OR-clause is refused even beside a valid one, and so is
	// a range of zero dimensions beside a keyword clause.
	if _, err := (Query{Bool: CNF{KeywordClause("x"), KeywordClause()}}).CNF(); err == nil {
		t.Error("empty OR-clause accepted")
	}
	if _, err := (Query{Range: &RangeCond{}, Bool: CNF{KeywordClause("x")}}).CNF(); err == nil {
		t.Error("zero-dimension range accepted")
	}
}

func TestQueryCNFAgreesWithDirectEvaluation(t *testing.T) {
	// The transformed CNF over W' must agree with direct evaluation on
	// raw attributes for every object — the §5.3 soundness property the
	// whole design rests on.
	q := Query{
		Range: &RangeCond{Lo: []int64{2, 0}, Hi: []int64{9, 5}},
		Bool:  CNF{KeywordClause("benz", "bmw")},
		Width: 4,
	}
	f, err := q.CNF()
	if err != nil {
		t.Fatal(err)
	}
	for v0 := int64(0); v0 < 16; v0++ {
		for v1 := int64(0); v1 < 16; v1 += 3 {
			for _, kws := range [][]string{{"benz"}, {"audi"}, {"bmw", "van"}, {}} {
				v := []int64{v0, v1}
				direct := q.MatchesObject(v, kws)
				elems := TransVector(v, 4)
				for _, kw := range kws {
					elems = append(elems, KeywordElement(kw))
				}
				m := multiset.New(elems...)
				if f.Match(m) != direct {
					t.Fatalf("disagreement at V=%v W=%v: CNF=%v direct=%v",
						v, kws, f.Match(m), direct)
				}
			}
		}
	}
}

func TestBitWidthDefault(t *testing.T) {
	if (Query{}).BitWidth() != DefaultBitWidth {
		t.Error("zero width should default")
	}
	if (Query{Width: 8}).BitWidth() != 8 {
		t.Error("explicit width ignored")
	}
}
