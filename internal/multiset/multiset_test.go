package multiset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndCounts(t *testing.T) {
	m := New("a", "b", "a")
	if m.Count("a") != 2 || m.Count("b") != 1 || m.Count("c") != 0 {
		t.Fatalf("unexpected counts: %v", m)
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
	if m.Cardinality() != 3 {
		t.Errorf("Cardinality = %d, want 3", m.Cardinality())
	}
	if !m.Contains("a") || m.Contains("z") {
		t.Error("Contains wrong")
	}
}

func TestAddIgnoresNonPositive(t *testing.T) {
	m := New()
	m.Add("x", 0)
	m.Add("x", -3)
	if m.Contains("x") {
		t.Error("non-positive Add should be a no-op")
	}
	m.Add("x", 2)
	if m.Count("x") != 2 {
		t.Error("Add(2) failed")
	}
}

func TestUnionVsSum(t *testing.T) {
	a := New("a", "a", "b")
	b := New("a", "c")
	u := Union(a, b)
	s := Sum(a, b)
	// Union takes max multiplicity: a×2, b, c.
	if u.Count("a") != 2 || u.Count("b") != 1 || u.Count("c") != 1 {
		t.Fatalf("union wrong: %v", u)
	}
	// Sum adds: a×3.
	if s.Count("a") != 3 || s.Count("b") != 1 || s.Count("c") != 1 {
		t.Fatalf("sum wrong: %v", s)
	}
	// Inputs untouched.
	if a.Count("a") != 2 || b.Count("a") != 1 {
		t.Error("inputs mutated")
	}
}

func TestIntersectAndDisjoint(t *testing.T) {
	a := New("a", "a", "b")
	b := New("a", "b", "b")
	i := Intersect(a, b)
	if i.Count("a") != 1 || i.Count("b") != 1 {
		t.Fatalf("intersect wrong: %v", i)
	}
	if Disjoint(a, b) {
		t.Error("a,b share elements")
	}
	if !Disjoint(New("x"), New("y")) {
		t.Error("x,y are disjoint")
	}
	if !Disjoint(New(), New("y")) {
		t.Error("∅ disjoint with everything")
	}
}

func TestIntersectsSet(t *testing.T) {
	m := New("sedan", "benz")
	if !m.IntersectsSet([]string{"benz", "bmw"}) {
		t.Error("should intersect")
	}
	if m.IntersectsSet([]string{"audi", "bmw"}) {
		t.Error("should not intersect")
	}
	if m.IntersectsSet(nil) {
		t.Error("empty clause never intersects")
	}
}

func TestJaccard(t *testing.T) {
	a := New("a", "b", "c")
	b := New("b", "c", "d")
	// |∩|=2, |∪|=4 → 0.5
	if got := Jaccard(a, b); got != 0.5 {
		t.Errorf("Jaccard = %v, want 0.5", got)
	}
	if Jaccard(New(), New()) != 0 {
		t.Error("Jaccard(∅,∅) should be 0")
	}
	if Jaccard(a, a) != 1 {
		t.Error("Jaccard(a,a) should be 1")
	}
	if Jaccard(a, New("z")) != 0 {
		t.Error("disjoint Jaccard should be 0")
	}
}

func TestEqualAndClone(t *testing.T) {
	a := New("a", "a", "b")
	c := a.Clone()
	if !Equal(a, c) {
		t.Error("clone not equal")
	}
	c.Add("a", 1)
	if Equal(a, c) {
		t.Error("multiplicity change should break equality")
	}
	if Equal(New("a"), New("b")) {
		t.Error("different elements equal")
	}
	if Equal(New("a"), New("a", "b")) {
		t.Error("different sizes equal")
	}
}

func TestElementsSortedAndExpand(t *testing.T) {
	m := New("zeta", "alpha", "mid", "alpha")
	e := m.Elements()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if e[i] != want[i] {
			t.Fatalf("Elements not sorted: %v", e)
		}
	}
	x := m.Expand()
	if len(x) != 4 || x[0] != "alpha" || x[1] != "alpha" {
		t.Fatalf("Expand wrong: %v", x)
	}
}

func TestString(t *testing.T) {
	m := New("b", "a", "a")
	if got := m.String(); got != "{a×2, b}" {
		t.Errorf("String = %q", got)
	}
	if New().String() != "{}" {
		t.Error("empty String wrong")
	}
}

func randMS(rng *rand.Rand) Multiset {
	n := rng.Intn(8)
	m := Multiset{}
	letters := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < n; i++ {
		m.Add(letters[rng.Intn(len(letters))], 1+rng.Intn(3))
	}
	return m
}

func TestAlgebraicLawsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	err := quick.Check(func(seed int64) bool {
		a, b, c := randMS(rng), randMS(rng), randMS(rng)
		// Commutativity.
		if !Equal(Union(a, b), Union(b, a)) || !Equal(Sum(a, b), Sum(b, a)) {
			return false
		}
		// Associativity of Sum.
		if !Equal(Sum(Sum(a, b), c), Sum(a, Sum(b, c))) {
			return false
		}
		// Union idempotent.
		if !Equal(Union(a, a), a) {
			return false
		}
		// Disjoint consistent with Intersect.
		if Disjoint(a, b) != (Intersect(a, b).Len() == 0) {
			return false
		}
		// Sum cardinality additive.
		return Sum(a, b).Cardinality() == a.Cardinality()+b.Cardinality()
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}
