// Package core implements the vChain framework itself: the prefix
// transformation that unifies numeric range conditions with set-valued
// Boolean conditions (§5.3), ADS generation with the intra-block
// Jaccard-clustered Merkle index (§6.1) and the inter-block skip list
// (§6.2), verifiable time-window query processing at the SP
// (Algorithms 1, 3, 4), online batch verification (§6.3), and user-side
// result verification against light-node headers.
package core

import (
	"fmt"
	"slices"
	"strings"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/multiset"
)

// DefaultBitWidth is the binary width used for numeric attributes when
// a workload does not specify one. 32 bits covers every dataset in the
// paper's evaluation.
const DefaultBitWidth = 32

// keywordPrefix namespaces set-valued attribute elements; numeric
// prefix elements are namespaced per dimension ("n0:", "n1:", …), so
// the two attribute kinds can never collide inside one multiset.
const keywordPrefix = "w:"

// KeywordElement maps a raw keyword to its namespaced element.
func KeywordElement(kw string) string { return keywordPrefix + kw }

// RawKeyword inverts KeywordElement: it strips the namespace from a
// keyword element, reporting ok=false for non-keyword elements
// (numeric range prefixes). External surfaces that re-encode a query
// — the HTTP gateway's JSON body, benchmarks replaying generated
// queries over the wire — use it to avoid double-namespacing.
func RawKeyword(el string) (string, bool) {
	kw, ok := strings.CutPrefix(el, keywordPrefix)
	return kw, ok
}

// numericElement renders a binary prefix of a dimension as an element.
// The prefix length is implicit in the string length, so "n0:10" (the
// prefix 10*) and "n0:100" (the exact value 100) are distinct elements.
func numericElement(dim int, bits string) string {
	return fmt.Sprintf("n%d:%s", dim, bits)
}

// clampToWidth saturates v into [0, 2^width−1]; negative inputs clamp
// to 0. The transformation operates on unsigned fixed-width values, so
// workloads with signed attributes must shift them first (the workload
// generators do).
func clampToWidth(v int64, width int) uint64 {
	if v < 0 {
		return 0
	}
	max := maxForWidth(width)
	u := uint64(v)
	if u > max {
		return max
	}
	return u
}

func maxForWidth(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

// bitsOf renders v as a width-long binary string.
func bitsOf(v uint64, width int) string {
	var sb strings.Builder
	sb.Grow(width)
	for i := width - 1; i >= 0; i-- {
		if v&(1<<uint(i)) != 0 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Trans is the trans(·) function of §5.3 for a single dimension: it
// expands a numeric value into its full set of binary prefixes, one
// element per prefix length 1..width. trans(4) over width 3 yields
// {1*, 10*, 100} rendered as {"n<dim>:1", "n<dim>:10", "n<dim>:100"}.
//
// The elements share one string: the prefix of length l is the first
// l bits of the full element, so a leaf's W' holds one allocation per
// dimension rather than one per prefix.
func Trans(v int64, dim, width int) []string {
	full := numericElement(dim, bitsOf(clampToWidth(v, width), width))
	head := len(full) - width
	out := make([]string, width)
	for l := 1; l <= width; l++ {
		out[l-1] = full[:head+l]
	}
	return out
}

// TransVector applies Trans to every dimension of a numeric vector.
func TransVector(v []int64, width int) []string {
	out := make([]string, 0, len(v)*width)
	for dim, x := range v {
		out = append(out, Trans(x, dim, width)...)
	}
	return out
}

// ObjectMultiset returns the unified set-valued attribute
// W' = trans(V) + W of an object (§5.3): numeric prefixes plus
// namespaced keywords, as a multiset.
func ObjectMultiset(o chain.Object, width int) multiset.Multiset {
	return multiset.New(appendKeywords(TransVector(o.V, width), o.W)...)
}

// appendKeywords appends the element of every keyword of w to dst.
func appendKeywords(dst, w []string) []string {
	for _, kw := range w {
		dst = append(dst, KeywordElement(kw))
	}
	return dst
}

// objectHas reports whether element e occurs in ObjectMultiset(*o,
// width) without building it: a keyword element names one of o's
// keywords, and a numeric element "n<dim>:<bits>" (dim in decimal
// without leading zeros, 1 ≤ len(bits) ≤ width) is a prefix of o's
// value in that dimension.
func objectHas(o *chain.Object, width int, e string) bool {
	if kw, ok := strings.CutPrefix(e, keywordPrefix); ok {
		return slices.Contains(o.W, kw)
	}
	rest, ok := strings.CutPrefix(e, "n")
	if !ok {
		return false
	}
	digits, bits, ok := strings.Cut(rest, ":")
	if !ok || digits == "" || len(digits) > 1 && digits[0] == '0' || len(bits) == 0 || len(bits) > width {
		return false
	}
	dim := 0
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' || dim > len(o.V) {
			return false
		}
		dim = dim*10 + int(digits[i]-'0')
	}
	if dim >= len(o.V) {
		return false
	}
	v := clampToWidth(o.V[dim], width)
	for i := 0; i < len(bits); i++ {
		bit := byte('0' + v>>uint(width-1-i)&1)
		if bits[i] != bit {
			return false
		}
	}
	return true
}

// RangeCover computes the minimal set of binary prefixes exactly
// covering [lo, hi] within the width-bit space — the gray nodes of
// Fig. 5. Bounds are clamped into the space; an inverted range yields
// nil.
func RangeCover(lo, hi int64, dim, width int) []string {
	l := clampToWidth(lo, width)
	h := clampToWidth(hi, width)
	if hi < 0 || l > h {
		return nil
	}
	var out []string
	for {
		// Largest aligned block starting at l that fits within h:
		// block size 2^k needs l ≡ 0 (mod 2^k) and l + 2^k − 1 ≤ h.
		// k is capped at width−1 so the emitted prefix keeps length ≥ 1
		// (objects never carry the empty full-space prefix).
		k := 0
		for k < width-1 {
			sizeNext := uint64(1) << uint(k+1)
			if l%sizeNext != 0 {
				break
			}
			if h-l < sizeNext-1 { // l + sizeNext − 1 > h, overflow-safe
				break
			}
			k++
		}
		bits := bitsOf(l, width)
		out = append(out, numericElement(dim, bits[:width-k]))
		step := uint64(1) << uint(k)
		if h-l < step { // emitted block reaches h: done
			return out
		}
		l += step
	}
}

// RangeClauses transforms a multi-dimensional range [lo, hi] into CNF
// clauses: one OR-clause of covering prefixes per dimension, ANDed
// together (§5.3). An error is reported for a range of zero dimensions
// and for inverted or empty ranges.
func RangeClauses(lo, hi []int64, width int) ([]Clause, error) {
	if len(lo) != len(hi) {
		return nil, fmt.Errorf("core: range bounds have dimensions %d and %d", len(lo), len(hi))
	}
	if len(lo) == 0 {
		return nil, fmt.Errorf("core: range has no dimensions")
	}
	out := make([]Clause, 0, len(lo))
	for d := range lo {
		cover := RangeCover(lo[d], hi[d], d, width)
		if len(cover) == 0 {
			return nil, fmt.Errorf("core: empty range [%d, %d] in dimension %d", lo[d], hi[d], d)
		}
		out = append(out, NewClause(cover...))
	}
	return out, nil
}
