// Package multiset implements counted multisets of string elements.
//
// vChain attaches a set-valued attribute W to every object, merges them
// up the intra-block Merkle index with multiset *union* (Def. 6.1) and
// across blocks in the skip list with multiset *sum* (§6.2), and feeds
// them into the cryptographic accumulators. This package supplies those
// operations plus the Jaccard similarity used by the index-building
// clustering heuristic (Alg. 2).
package multiset

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strings"
)

// Multiset maps an element to its (positive) multiplicity.
type Multiset map[string]int

// New builds a multiset from elements; duplicates accumulate.
func New(elems ...string) Multiset {
	m := make(Multiset, len(elems))
	for _, e := range elems {
		m[e]++
	}
	return m
}

// Clone returns a deep copy.
func (m Multiset) Clone() Multiset {
	out := make(Multiset, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Add inserts n occurrences of e. Non-positive n is a no-op.
func (m Multiset) Add(e string, n int) {
	if n <= 0 {
		return
	}
	m[e] += n
}

// Count returns the multiplicity of e (0 when absent).
func (m Multiset) Count(e string) int { return m[e] }

// Contains reports whether e occurs at least once.
func (m Multiset) Contains(e string) bool { return m[e] > 0 }

// Len returns the number of distinct elements.
func (m Multiset) Len() int { return len(m) }

// Cardinality returns the total number of occurrences (Σ multiplicity).
func (m Multiset) Cardinality() int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Union returns the multiset union (per-element max multiplicity).
func Union(a, b Multiset) Multiset {
	out := a.Clone()
	for k, v := range b {
		if v > out[k] {
			out[k] = v
		}
	}
	return out
}

// Sum returns the multiset sum (per-element added multiplicity). This
// is the aggregation the accumulator Sum primitive mirrors in the
// exponent.
func Sum(a, b Multiset) Multiset {
	out := a.Clone()
	for k, v := range b {
		out[k] += v
	}
	return out
}

// Intersect returns the multiset intersection (per-element min).
func Intersect(a, b Multiset) Multiset {
	small, large := a, b
	if len(large) < len(small) {
		small, large = large, small
	}
	out := Multiset{}
	for k, v := range small {
		if w := large[k]; w > 0 {
			if w < v {
				out[k] = w
			} else {
				out[k] = v
			}
		}
	}
	return out
}

// Disjoint reports whether a and b share no element.
func Disjoint(a, b Multiset) bool {
	small, large := a, b
	if len(large) < len(small) {
		small, large = large, small
	}
	for k := range small {
		if large[k] > 0 {
			return false
		}
	}
	return true
}

// IntersectsSet reports whether any element of the plain set `set`
// occurs in m. Query clauses are plain sets, so this is the hot path of
// Boolean matching.
func (m Multiset) IntersectsSet(set []string) bool {
	for _, e := range set {
		if m[e] > 0 {
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
	inter := 0
	small, large := a, b
	if len(large) < len(small) {
		small, large = large, small
	}
	for k := range small {
		if large[k] > 0 {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// Equal reports whether a and b have identical elements and
// multiplicities.
func Equal(a, b Multiset) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Elements returns the distinct elements in sorted order (deterministic
// iteration for hashing and serialization).
func (m Multiset) Elements() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Expand returns every occurrence (element repeated by multiplicity),
// sorted. This is the list fed to the accumulator Setup.
func (m Multiset) Expand() []string {
	out := make([]string, 0, m.Cardinality())
	for _, k := range m.Elements() {
		for i := 0; i < m[k]; i++ {
			out = append(out, k)
		}
	}
	return out
}

// Digest returns a collision-resistant 32-byte digest of the multiset:
// SHA-256 over the length-delimited (element, multiplicity) pairs in
// sorted element order. Equal multisets share a digest regardless of
// construction order; the proof engine uses it as a memoization key.
func (m Multiset) Digest() [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	for _, k := range m.Elements() {
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

// String renders the multiset deterministically, e.g. {a, b×2}.
func (m Multiset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range m.Elements() {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(k)
		if m[k] > 1 {
			sb.WriteString("×")
			sb.WriteString(itoa(m[k]))
		}
	}
	sb.WriteByte('}')
	return sb.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
