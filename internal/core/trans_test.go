package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/multiset"
)

func TestTransPaperExample(t *testing.T) {
	// §5.3: trans(4) over a 3-bit space = {1*, 10*, 100}.
	got := Trans(4, 0, 3)
	want := []string{"n0:1", "n0:10", "n0:100"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestTransVectorDimensionsDistinct(t *testing.T) {
	// (4, 2) over 3 bits: {1*₁,10*₁,100₁, 0*₂,01*₂,010₂}.
	got := TransVector([]int64{4, 2}, 3)
	want := map[string]bool{
		"n0:1": true, "n0:10": true, "n0:100": true,
		"n1:0": true, "n1:01": true, "n1:010": true,
	}
	if len(got) != 6 {
		t.Fatalf("got %d elements: %v", len(got), got)
	}
	for _, e := range got {
		if !want[e] {
			t.Fatalf("unexpected element %q", e)
		}
	}
}

func TestTransClamping(t *testing.T) {
	// Negative values clamp to 0; overflow clamps to the max.
	neg := Trans(-5, 0, 3)
	zero := Trans(0, 0, 3)
	for i := range zero {
		if neg[i] != zero[i] {
			t.Fatal("negative value should clamp to 0")
		}
	}
	big := Trans(1000, 0, 3)
	max := Trans(7, 0, 3)
	for i := range max {
		if big[i] != max[i] {
			t.Fatal("overflow should clamp to 2^w-1")
		}
	}
}

func TestRangeCoverPaperExample(t *testing.T) {
	// Fig. 5: [0, 6] over 3 bits = {0*, 10*, 110}.
	got := RangeCover(0, 6, 0, 3)
	want := map[string]bool{"n0:0": true, "n0:10": true, "n0:110": true}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for _, e := range got {
		if !want[e] {
			t.Fatalf("unexpected prefix %q in %v", e, got)
		}
	}
}

func TestRangeCoverFullSpace(t *testing.T) {
	// Whole space still emits prefixes of length ≥ 1 (objects never
	// carry the empty prefix).
	got := RangeCover(0, 7, 0, 3)
	want := map[string]bool{"n0:0": true, "n0:1": true}
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	for _, e := range got {
		if !want[e] {
			t.Fatalf("unexpected %q", e)
		}
	}
}

func TestRangeCoverSingleValueAndEdge(t *testing.T) {
	got := RangeCover(5, 5, 0, 3)
	if len(got) != 1 || got[0] != "n0:101" {
		t.Fatalf("got %v", got)
	}
	// Top edge.
	got = RangeCover(7, 7, 0, 3)
	if len(got) != 1 || got[0] != "n0:111" {
		t.Fatalf("got %v", got)
	}
	// Inverted range.
	if RangeCover(5, 3, 0, 3) != nil {
		t.Error("inverted range should be nil")
	}
	// Entirely negative range clamps to [0,0].
	got = RangeCover(-9, -1, 0, 3)
	if got != nil {
		t.Errorf("negative-hi range should be nil, got %v", got)
	}
}

// TestMembershipEquivalence is the central §5.3 property: v ∈ [lo, hi]
// iff trans(v) intersects the range cover.
func TestMembershipEquivalence(t *testing.T) {
	const width = 6
	rng := rand.New(rand.NewSource(20))
	err := quick.Check(func(seed int64) bool {
		lo := int64(rng.Intn(64))
		hi := int64(rng.Intn(64))
		if lo > hi {
			lo, hi = hi, lo
		}
		v := int64(rng.Intn(64))
		cover := RangeCover(lo, hi, 0, width)
		m := multiset.New(Trans(v, 0, width)...)
		inRange := v >= lo && v <= hi
		return m.IntersectsSet(cover) == inRange
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestMembershipEquivalenceExhaustiveSmall(t *testing.T) {
	const width = 4
	for lo := int64(0); lo < 16; lo++ {
		for hi := lo; hi < 16; hi++ {
			cover := RangeCover(lo, hi, 0, width)
			for v := int64(0); v < 16; v++ {
				m := multiset.New(Trans(v, 0, width)...)
				got := m.IntersectsSet(cover)
				want := v >= lo && v <= hi
				if got != want {
					t.Fatalf("[%d,%d] v=%d: intersect=%v want %v (cover %v)", lo, hi, v, got, want, cover)
				}
			}
		}
	}
}

func TestRangeCoverMinimality(t *testing.T) {
	// The cover of [0, 2^w−2] is w prefixes (the classic worst case);
	// anything more means the greedy alignment is broken.
	const width = 8
	cover := RangeCover(0, (1<<width)-2, 0, width)
	if len(cover) != width {
		t.Fatalf("cover size %d, want %d: %v", len(cover), width, cover)
	}
}

func TestRangeClauses(t *testing.T) {
	// §5.3 example: [(0,3), (6,4)] → (0*₁ ∨ 10*₁ ∨ 110₁) ∧ (011₂ ∨ 100₂).
	cls, err := RangeClauses([]int64{0, 3}, []int64{6, 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cls) != 2 {
		t.Fatalf("want 2 clauses, got %d", len(cls))
	}
	if len(cls[0]) != 3 || len(cls[1]) != 2 {
		t.Fatalf("clause sizes %d,%d want 3,2: %v", len(cls[0]), len(cls[1]), cls)
	}
	// Paper's checks: 4 ∈ [0,6] in dim0; (4,2) fails dim1 [3,4].
	m42 := multiset.New(TransVector([]int64{4, 2}, 3)...)
	if !cls[0].Matches(m42) {
		t.Error("dim0 clause should match value 4")
	}
	if cls[1].Matches(m42) {
		t.Error("dim1 clause should mismatch value 2")
	}

	if _, err := RangeClauses([]int64{1}, []int64{2, 3}, 3); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := RangeClauses([]int64{5}, []int64{2}, 3); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := RangeClauses(nil, nil, 3); err == nil {
		t.Error("zero-dimension range accepted")
	}
}

// TestObjectHasMatchesObjectMultiset: membership decided on the object
// equals membership in its built W', for every element of W', for
// range covers and keywords of random queries, and for strings that
// only look like elements.
func TestObjectHasMatchesObjectMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	hostile := []string{"", "n", "n:", "n0", "n0:", "n:1", "n01:1", "n+0:1", "n-0:1", "n 0:1", "n0:2", "n0:1x",
		"n0:10:1", "n99999999999999999999:1", "w:", "w", "x:1", "N0:1", "w:n0:1"}
	for _, width := range []int{1, 3, 8, 13, 32, 63, 64} {
		for range 40 {
			o := chain.Object{V: make([]int64, 1+rng.Intn(3)), W: []string{"a", "n0:1"}[:rng.Intn(3)]}
			for d := range o.V {
				o.V[d] = rng.Int63n(1<<20) - 1<<10 // negative values clamp to 0
				if rng.Intn(4) == 0 {
					o.V[d] = rng.Int63()
				}
			}
			w := ObjectMultiset(o, width)
			elems := append([]string{}, hostile...)
			elems = append(elems, w.Elements()...)
			for d := range len(o.V) + 1 {
				lo := rng.Int63n(1 << 12)
				elems = append(elems, RangeCover(lo, lo+rng.Int63n(1<<12), d, width)...)
				elems = append(elems, numericElement(d, "1"+strings.Repeat("0", width)))
			}
			elems = append(elems, KeywordElement("a"), KeywordElement("b"), KeywordElement(""))
			for _, e := range elems {
				if got, want := objectHas(&o, width, e), w.IntersectsSet([]string{e}); got != want {
					t.Fatalf("width %d, object %v: objectHas(%q) = %v, W' says %v", width, o, e, got, want)
				}
			}
		}
	}
}

func TestObjectMultiset(t *testing.T) {
	o := chain.Object{ID: 1, TS: 9, V: []int64{4}, W: []string{"sedan", "benz"}}
	m := ObjectMultiset(o, 3)
	for _, e := range []string{"n0:1", "n0:10", "n0:100", "w:sedan", "w:benz"} {
		if !m.IntersectsSet([]string{e}) {
			t.Fatalf("missing element %q in %v", e, m)
		}
	}
	if m.Len() != 5 {
		t.Fatalf("unexpected size %d: %v", m.Len(), m)
	}
	// Keywords cannot collide with numeric elements even adversarially.
	evil := chain.Object{ID: 2, V: nil, W: []string{"n0:100"}}
	em := ObjectMultiset(evil, 3)
	if em.IntersectsSet([]string{"n0:100"}) {
		t.Error("keyword leaked into numeric namespace")
	}
	if !em.IntersectsSet([]string{"w:n0:100"}) {
		t.Error("namespaced keyword missing")
	}
}
