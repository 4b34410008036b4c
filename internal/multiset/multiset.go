// Package multiset implements counted multisets of string elements.
//
// vChain attaches a set-valued attribute W to every object, merges them
// up the intra-block Merkle index with multiset *union* (Def. 6.1) and
// across blocks in the skip list with multiset *sum* (§6.2), and feeds
// them into the cryptographic accumulators. This package supplies those
// operations plus the Jaccard similarity used by the index-building
// clustering heuristic (Alg. 2).
//
// A Multiset is one canonical slice of (element, count) entries whose
// elements are strictly ascending and whose counts are all ≥ 1; equal
// multisets are equal slices. Every operation keeps that invariant and
// reads its inputs in order: Union, Sum and Intersect are one merge
// walk over both inputs, where an element present on one side only
// keeps its count in Union and Sum and is dropped by Intersect, and an
// element present on both sides takes the larger count (Union), the
// added counts (Sum) or the smaller count (Intersect). Consumers that
// need element order — the accumulator encoding, the chain record, the
// proof-cache key — iterate the slice as it is.
package multiset

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Entry is one distinct element of a multiset with its multiplicity.
type Entry struct {
	Elem  string
	Count int
}

// Multiset is a counted multiset: entries with strictly ascending
// elements and positive counts. The zero value is the empty multiset.
// Values built outside this package must keep the invariant.
type Multiset []Entry

// New builds a multiset from elements; duplicates accumulate. elems is
// not modified.
func New(elems ...string) Multiset {
	m := make(Multiset, len(elems))
	for i, e := range elems {
		m[i] = Entry{Elem: e, Count: 1}
	}
	slices.SortFunc(m, func(a, b Entry) int { return strings.Compare(a.Elem, b.Elem) })
	out := m[:0]
	for _, e := range m {
		if n := len(out); n > 0 && out[n-1].Elem == e.Elem {
			out[n-1].Count++
		} else {
			out = append(out, e)
		}
	}
	return out
}

// Len returns the number of distinct elements.
func (m Multiset) Len() int { return len(m) }

// Cardinality returns the total number of occurrences (Σ multiplicity).
func (m Multiset) Cardinality() int {
	n := 0
	for _, e := range m {
		n += e.Count
	}
	return n
}

// Union returns the multiset union (per-element max multiplicity).
func Union(a, b Multiset) Multiset {
	return merge(make(Multiset, 0, len(a)+len(b)-common(a, b)), a, b, union)
}

// Sum returns the multiset sum (per-element added multiplicity). This
// is the aggregation the accumulator Sum primitive mirrors in the
// exponent.
func Sum(a, b Multiset) Multiset { return AppendSum(nil, a, b) }

// AppendSum appends the entries of Sum(a, b) to dst and returns the
// extended slice, so a caller summing many multisets can reuse its
// buffers. dst must not share memory with a or b.
func AppendSum(dst, a, b Multiset) Multiset {
	return merge(slices.Grow(dst, len(a)+len(b)-common(a, b)), a, b, sum)
}

// Intersect returns the multiset intersection (per-element min).
func Intersect(a, b Multiset) Multiset {
	return merge(make(Multiset, 0, common(a, b)), a, b, intersect)
}

// rule is how merge combines the counts of an element.
type rule int

const (
	union     rule = iota // max of both sides; one side's count kept
	sum                   // both sides added; one side's count kept
	intersect             // min of both sides; one side's dropped
)

// merge appends to dst the ascending merge walk of a and b, combining
// counts by r.
func merge(dst, a, b Multiset, r rule) Multiset {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := strings.Compare(a[i].Elem, b[j].Elem); {
		case c == 0:
			n := a[i].Count + b[j].Count
			switch r {
			case union:
				n = max(a[i].Count, b[j].Count)
			case intersect:
				n = min(a[i].Count, b[j].Count)
			}
			dst = append(dst, Entry{a[i].Elem, n})
			i++
			j++
		case c < 0:
			if r != intersect {
				dst = append(dst, a[i])
			}
			i++
		default:
			if r != intersect {
				dst = append(dst, b[j])
			}
			j++
		}
	}
	if r != intersect {
		dst = append(dst, a[i:]...)
		dst = append(dst, b[j:]...)
	}
	return dst
}

// common returns the number of elements a and b share.
func common(a, b Multiset) int {
	n := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := strings.Compare(a[i].Elem, b[j].Elem); {
		case c == 0:
			n++
			i++
			j++
		case c < 0:
			i++
		default:
			j++
		}
	}
	return n
}

// Disjoint reports whether a and b share no element.
func Disjoint(a, b Multiset) bool { return common(a, b) == 0 }

// IntersectsSet reports whether any element of the plain set `set`
// occurs in m, by binary search per element. Query clauses are plain
// sets, so this is the hot path of Boolean matching.
func (m Multiset) IntersectsSet(set []string) bool {
	for _, e := range set {
		if _, ok := slices.BinarySearchFunc(m, e, func(x Entry, e string) int { return strings.Compare(x.Elem, e) }); ok {
			return true
		}
	}
	return false
}

// Jaccard returns |a ∩ b| / |a ∪ b| over distinct elements, the
// similarity measure driving the intra-block clustering (Alg. 2).
// Two empty multisets have similarity 0.
func Jaccard(a, b Multiset) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := common(a, b)
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// Elements returns the distinct elements in ascending order.
func (m Multiset) Elements() []string {
	out := make([]string, len(m))
	for i, e := range m {
		out[i] = e.Elem
	}
	return out
}

// Expand returns every occurrence (element repeated by multiplicity),
// in ascending order. This is the list fed to the accumulator Setup.
func (m Multiset) Expand() []string {
	out := make([]string, 0, m.Cardinality())
	for _, e := range m {
		for range e.Count {
			out = append(out, e.Elem)
		}
	}
	return out
}

// Digest returns a collision-resistant 32-byte digest of the multiset:
// SHA-256 over the length-delimited (element, multiplicity) pairs in
// ascending element order. Equal multisets share a digest; the proof
// engine uses it as a memoization key.
func (m Multiset) Digest() [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	for _, e := range m {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(e.Elem)))
		h.Write(buf[:])
		io.WriteString(h, e.Elem)
		binary.LittleEndian.PutUint64(buf[:], uint64(e.Count))
		h.Write(buf[:])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// String renders the multiset deterministically, e.g. {a, b×2}.
func (m Multiset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, e := range m {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(e.Elem)
		if e.Count > 1 {
			sb.WriteString("×")
			sb.WriteString(strconv.Itoa(e.Count))
		}
	}
	sb.WriteByte('}')
	return sb.String()
}
