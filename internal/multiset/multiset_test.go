package multiset

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// ref is the reference multiset the tests check Multiset against: a
// map from element to multiplicity, with every operation written the
// obvious way and every ordered output sorted afterwards.
type ref map[string]int

func refNew(elems ...string) ref {
	m := ref{}
	for _, e := range elems {
		m[e]++
	}
	return m
}

func refUnion(a, b ref) ref {
	out := ref{}
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = max(out[k], v)
	}
	return out
}

func refSum(a, b ref) ref {
	out := ref{}
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

func refIntersect(a, b ref) ref {
	out := ref{}
	for k, v := range a {
		if w := b[k]; w > 0 {
			out[k] = min(v, w)
		}
	}
	return out
}

func refDisjoint(a, b ref) bool { return len(refIntersect(a, b)) == 0 }

func (m ref) intersectsSet(set []string) bool {
	for _, e := range set {
		if m[e] > 0 {
			return true
		}
	}
	return false
}

func refJaccard(a, b ref) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := len(refIntersect(a, b))
	return float64(inter) / float64(len(a)+len(b)-inter)
}

func (m ref) cardinality() int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func (m ref) elements() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (m ref) expand() []string {
	var out []string
	for _, k := range m.elements() {
		for range m[k] {
			out = append(out, k)
		}
	}
	return out
}

// entries is m in Multiset's representation.
func (m ref) entries() Multiset {
	var out Multiset
	for _, k := range m.elements() {
		out = append(out, Entry{k, m[k]})
	}
	return out
}

func (m ref) digest() [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	for _, k := range m.elements() {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(k)))
		h.Write(buf[:])
		h.Write([]byte(k))
		binary.LittleEndian.PutUint64(buf[:], uint64(m[k]))
		h.Write(buf[:])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// checkInvariant fails t unless m's elements strictly ascend and every
// count is positive.
func checkInvariant(t *testing.T, what string, m Multiset) {
	t.Helper()
	for i, e := range m {
		if e.Count < 1 || i > 0 && m[i-1].Elem >= e.Elem {
			t.Fatalf("%s = %v breaks the invariant at entry %d", what, m, i)
		}
	}
}

// checkAgainstRef fails t unless m keeps the invariant and holds
// exactly the reference's entries.
func checkAgainstRef(t *testing.T, what string, m Multiset, want ref) {
	t.Helper()
	checkInvariant(t, what, m)
	if !slices.Equal(m, want.entries()) {
		t.Fatalf("%s = %v, reference %v", what, m, want.entries())
	}
}

// fuzzVocab holds elements that are prefixes of one another, so that
// the merge walks compare strings of different lengths.
var fuzzVocab = [8]string{"", "a", "ab", "abc", "b", "ba", "n0:1", "n0:10"}

// FuzzMultisetOps decodes two multisets a, b and a plain set from the
// input — each byte names an element (bits 0–2), a multiplicity 1–8
// (bits 3–5) and a target (bits 6–7: a, b, the set, or both a and b) —
// and checks every operation against the map reference, and that
// every multiset result keeps the invariant.
func FuzzMultisetOps(f *testing.F) {
	f.Add([]byte{})                       // empty multisets, empty set
	f.Add([]byte{0x39, 0x02, 0x42, 0x84}) // an element of multiplicity 8
	f.Add([]byte{0xc0, 0xc9, 0xd3, 0xdb}) // a and b fully overlapping
	f.Add([]byte{0x01, 0x0a, 0x44, 0x56, 0x81, 0x87, 0xc3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var elems [2][]string
		var set []string
		for _, b := range data {
			e := fuzzVocab[b&7]
			for range 1 + int(b>>3&7) {
				switch b >> 6 {
				case 0, 1:
					elems[b>>6] = append(elems[b>>6], e)
				case 2:
					set = append(set, e)
				default:
					elems[0] = append(elems[0], e)
					elems[1] = append(elems[1], e)
				}
			}
		}
		a, b := New(elems[0]...), New(elems[1]...)
		ra, rb := refNew(elems[0]...), refNew(elems[1]...)
		checkAgainstRef(t, "New(a)", a, ra)
		checkAgainstRef(t, "New(b)", b, rb)
		checkAgainstRef(t, "Union", Union(a, b), refUnion(ra, rb))
		checkAgainstRef(t, "Sum", Sum(a, b), refSum(ra, rb))
		checkAgainstRef(t, "Intersect", Intersect(a, b), refIntersect(ra, rb))
		dst := AppendSum(Multiset{{"zz", 1}}, a, b)
		if dst[0] != (Entry{"zz", 1}) {
			t.Fatalf("AppendSum overwrote dst: %v", dst)
		}
		checkAgainstRef(t, "AppendSum", dst[1:], refSum(ra, rb))
		if got, want := Disjoint(a, b), refDisjoint(ra, rb); got != want {
			t.Fatalf("Disjoint(%v, %v) = %v, reference %v", a, b, got, want)
		}
		if got, want := a.IntersectsSet(set), ra.intersectsSet(set); got != want {
			t.Fatalf("%v.IntersectsSet(%q) = %v, reference %v", a, set, got, want)
		}
		if got, want := Jaccard(a, b), refJaccard(ra, rb); got != want {
			t.Fatalf("Jaccard(%v, %v) = %v, reference %v", a, b, got, want)
		}
		if a.Len() != len(ra) || a.Cardinality() != ra.cardinality() {
			t.Fatalf("%v: Len %d, Cardinality %d; reference %d, %d", a, a.Len(), a.Cardinality(), len(ra), ra.cardinality())
		}
		var distinct []string
		for _, e := range a {
			distinct = append(distinct, e.Elem)
		}
		if !slices.Equal(distinct, ra.elements()) || !slices.Equal(a.Expand(), ra.expand()) {
			t.Fatalf("%v: elements %q, Expand %q; reference %q, %q", a, distinct, a.Expand(), ra.elements(), ra.expand())
		}
		if a.Digest() != ra.digest() {
			t.Fatalf("%v: digest differs from the reference's", a)
		}
		if got := Pack(a).Unpack(); !slices.Equal(got, a) {
			t.Fatalf("%v: packed and unpacked as %v", a, got)
		}
	})
}

// TestPackRoundTrip packs multisets whose lengths, counts and entry
// numbers need multi-byte uvarints, and appends the unpacked entries
// after existing ones.
func TestPackRoundTrip(t *testing.T) {
	long := strings.Repeat("x", 300)
	var many Multiset
	for i := range 200 {
		many = append(many, Entry{Elem: fmt.Sprintf("e%03d", i), Count: 1 + i*i})
	}
	for _, m := range []Multiset{nil, {{"", 1}}, {{"a", 1}, {long, 1 << 40}}, many} {
		p := Pack(m)
		if got := p.AppendTo(Multiset{{"zz", 1}}); got[0] != (Entry{"zz", 1}) || !slices.Equal(got[1:], m) {
			t.Fatalf("%d entries: unpacked %v", len(m), got)
		}
	}
	if n := len(Pack(many)); n >= len(many)*int(unsafe.Sizeof(Entry{})) {
		t.Fatalf("%d short entries packed into %d bytes, no fewer than their Entry values", len(many), n)
	}
}

func TestNewAndCounts(t *testing.T) {
	elems := []string{"b", "a", "c", "a"}
	m := New(elems...)
	if want := (Multiset{{"a", 2}, {"b", 1}, {"c", 1}}); !slices.Equal(m, want) {
		t.Fatalf("New = %v, want %v", m, want)
	}
	if !slices.Equal(elems, []string{"b", "a", "c", "a"}) {
		t.Errorf("New reordered its input: %q", elems)
	}
	if m.Len() != 3 || m.Cardinality() != 4 {
		t.Errorf("Len %d, Cardinality %d; want 3, 4", m.Len(), m.Cardinality())
	}
	if New().Len() != 0 {
		t.Error("New() not empty")
	}
}

func TestUnionVsSum(t *testing.T) {
	a := New("a", "a", "b")
	b := New("a", "c")
	// Union takes max multiplicity: a×2, b, c.
	if u := Union(a, b); !slices.Equal(u, Multiset{{"a", 2}, {"b", 1}, {"c", 1}}) {
		t.Fatalf("union wrong: %v", u)
	}
	// Sum adds: a×3.
	if s := Sum(a, b); !slices.Equal(s, Multiset{{"a", 3}, {"b", 1}, {"c", 1}}) {
		t.Fatalf("sum wrong: %v", s)
	}
	// Inputs untouched.
	if !slices.Equal(a, New("a", "a", "b")) || !slices.Equal(b, New("a", "c")) {
		t.Error("inputs mutated")
	}
}

func TestIntersectAndDisjoint(t *testing.T) {
	a := New("a", "a", "b")
	b := New("a", "b", "b")
	if i := Intersect(a, b); !slices.Equal(i, New("a", "b")) {
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

func TestElementsSortedAndExpand(t *testing.T) {
	m := New("zeta", "alpha", "mid", "alpha")
	if !slices.Equal(m, Multiset{{"alpha", 2}, {"mid", 1}, {"zeta", 1}}) {
		t.Fatalf("elements not sorted and merged: %v", m)
	}
	if x := m.Expand(); !slices.Equal(x, []string{"alpha", "alpha", "mid", "zeta"}) {
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
	if got := New(strings.Split(strings.Repeat("x,", 12), ",")[:12]...).String(); got != "{x×12}" {
		t.Errorf("String = %q", got)
	}
}

func randMS(rng *rand.Rand) Multiset {
	n := rng.Intn(8)
	var elems []string
	letters := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < n; i++ {
		e := letters[rng.Intn(len(letters))]
		for range 1 + rng.Intn(3) {
			elems = append(elems, e)
		}
	}
	return New(elems...)
}

func TestAlgebraicLawsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	err := quick.Check(func(seed int64) bool {
		a, b, c := randMS(rng), randMS(rng), randMS(rng)
		// Commutativity.
		if !slices.Equal(Union(a, b), Union(b, a)) || !slices.Equal(Sum(a, b), Sum(b, a)) {
			return false
		}
		// Associativity of Sum.
		if !slices.Equal(Sum(Sum(a, b), c), Sum(a, Sum(b, c))) {
			return false
		}
		// Union idempotent.
		if !slices.Equal(Union(a, a), a) {
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
