// Package subscribe implements vChain's verifiable subscription queries
// (§7): an inverted prefix tree (IP-Tree) that organizes a large number
// of registered queries for shared processing, a real-time publisher
// that emits per-block results with VOs, and the lazy-authentication
// optimization that defers and aggregates mismatch proofs until a
// matching result appears (Alg. 5).
//
// Publications are spans of time-window VOs, so the light client
// verifies them with exactly the same machinery as one-shot queries.
package subscribe

import (
	"fmt"
	"sync"

	"github.com/vchain-go/vchain/internal/core"
)

// IPTree is the inverted prefix tree of §7.1: a grid tree over the
// numeric space whose nodes carry a Range Condition Inverted File
// (RCIF: which queries fully/partially cover the cell) and a Boolean
// Condition Inverted File (BCIF: clause → queries, for full-cover
// queries). It groups similar queries so the SP evaluates and proves
// each distinct clause once instead of once per query.
//
// The grid is built on first use (ClassifyPoint, Depth). The engine's
// block decisions read only ClauseGroups, which needs no grid, so a
// subscription engine never pays for the cells.
type IPTree struct {
	// Dims is the numeric dimensionality of the indexed space.
	Dims int
	// Width is the bit width of each dimension.
	Width int
	// MaxDepth caps splitting (§7.1: beyond it, partial queries are
	// resolved by direct evaluation).
	MaxDepth int

	gridOnce sync.Once
	root     *ipNode
	queries  map[int]core.Query
	// splitDims caps how many dimensions each split halves: a full 2^d
	// fan-out explodes for high-dimensional spaces (WX has 7), so cells
	// split along the first splitDims dimensions only; the remaining
	// dimensions are resolved by the leaf-level direct check.
	splitDims int
	// nodeBudget caps the total number of tree nodes as a second
	// safety valve against adversarial query sets.
	nodeBudget int
	nodes      int
}

// ipNode is one grid cell.
type ipNode struct {
	lo, hi   []int64 // inclusive cell bounds
	depth    int
	full     []int // RCIF entries with cover type "full"
	partial  []int // RCIF entries with cover type "partial"
	bcif     map[string]*bcifEntry
	children []*ipNode
}

// bcifEntry is one BCIF row: a clause and the full-cover queries
// sharing it.
type bcifEntry struct {
	clause  core.Clause
	queries []int
}

// NewIPTree builds the tree over the given queries (Alg. 6).
func NewIPTree(dims, width, maxDepth int, queries map[int]core.Query) (*IPTree, error) {
	if dims < 1 {
		return nil, fmt.Errorf("subscribe: IP-tree needs ≥ 1 dimension")
	}
	if width < 1 || width > 62 {
		return nil, fmt.Errorf("subscribe: invalid bit width %d", width)
	}
	t := &IPTree{Dims: dims, Width: width, MaxDepth: maxDepth, queries: queries, nodeBudget: 1 << 14}
	t.splitDims = dims
	if t.splitDims > 2 {
		t.splitDims = 2
	}
	return t, nil
}

// grid returns the tree's root cell, building the grid on first call.
func (t *IPTree) grid() *ipNode {
	t.gridOnce.Do(func() {
		lo := make([]int64, t.Dims)
		hi := make([]int64, t.Dims)
		for d := range hi {
			hi[d] = (int64(1) << uint(t.Width)) - 1
		}
		t.root = t.build(lo, hi, 0, sortedQueryIDs(t.queries))
	})
	return t.root
}

// queryRect returns the query's numeric rectangle, expanding a missing
// range condition to the full space.
func (t *IPTree) queryRect(q core.Query) (lo, hi []int64) {
	lo = make([]int64, t.Dims)
	hi = make([]int64, t.Dims)
	max := (int64(1) << uint(t.Width)) - 1
	for d := 0; d < t.Dims; d++ {
		if q.Range != nil && d < len(q.Range.Lo) {
			lo[d], hi[d] = q.Range.Lo[d], q.Range.Hi[d]
			if lo[d] < 0 {
				lo[d] = 0
			}
			if hi[d] > max {
				hi[d] = max
			}
		} else {
			lo[d], hi[d] = 0, max
		}
	}
	return lo, hi
}

type coverKind int

const (
	coverNone coverKind = iota
	coverPartial
	coverFull
)

// coverOf classifies how the query's rectangle covers the cell.
func coverOf(qlo, qhi, clo, chi []int64) coverKind {
	full := true
	for d := range clo {
		if qlo[d] > chi[d] || qhi[d] < clo[d] {
			return coverNone
		}
		if qlo[d] > clo[d] || qhi[d] < chi[d] {
			full = false
		}
	}
	if full {
		return coverFull
	}
	return coverPartial
}

// build recursively constructs the node for a cell given candidate
// query ids (those intersecting the parent).
func (t *IPTree) build(lo, hi []int64, depth int, candidates []int) *ipNode {
	n := &ipNode{lo: lo, hi: hi, depth: depth, bcif: map[string]*bcifEntry{}}
	var partial []int
	for _, id := range candidates {
		q := t.queries[id]
		qlo, qhi := t.queryRect(q)
		switch coverOf(qlo, qhi, lo, hi) {
		case coverFull:
			n.full = append(n.full, id)
			for _, cl := range q.Bool {
				k := cl.Key()
				e, ok := n.bcif[k]
				if !ok {
					e = &bcifEntry{clause: cl}
					n.bcif[k] = e
				}
				e.queries = append(e.queries, id)
			}
		case coverPartial:
			n.partial = append(n.partial, id)
			partial = append(partial, id)
		}
	}
	t.nodes++
	// Split while partial queries remain, the cell is splittable, and
	// the node budget holds.
	if len(partial) > 0 && depth < t.MaxDepth && hi[0] > lo[0] && t.nodes < t.nodeBudget {
		for _, quad := range splitCell(lo, hi, t.splitDims) {
			n.children = append(n.children, t.build(quad.lo, quad.hi, depth+1, partial))
		}
	}
	return n
}

type cell struct{ lo, hi []int64 }

// splitCell halves the first maxDims dimensions, producing up to
// 2^maxDims equal children.
func splitCell(lo, hi []int64, maxDims int) []cell {
	d := len(lo)
	if d > maxDims {
		d = maxDims
	}
	out := []cell{{lo: append([]int64{}, lo...), hi: append([]int64{}, hi...)}}
	for dim := 0; dim < d; dim++ {
		mid := lo[dim] + (hi[dim]-lo[dim])/2
		var next []cell
		for _, c := range out {
			lo1 := append([]int64{}, c.lo...)
			hi1 := append([]int64{}, c.hi...)
			hi1[dim] = mid
			lo2 := append([]int64{}, c.lo...)
			lo2[dim] = mid + 1
			hi2 := append([]int64{}, c.hi...)
			next = append(next, cell{lo1, hi1}, cell{lo2, hi2})
		}
		out = next
	}
	return out
}

// Classification of queries against one object.
type Classification struct {
	// RangeMatched are query ids whose numeric range contains the point.
	RangeMatched []int
	// RangeMismatched are query ids whose range excludes the point.
	RangeMismatched []int
}

// ClassifyPoint walks the tree for a single object's numeric vector
// (the single-object traversal of §7.1): queries fully covering some
// node on the path match the range; queries that disappear from the
// path (or fail the leaf check) mismatch it.
func (t *IPTree) ClassifyPoint(v []int64) Classification {
	var out Classification
	seen := map[int]bool{}
	decided := map[int]bool{}
	n := t.grid()
	for _, id := range n.partial {
		seen[id] = true
	}
	for {
		for _, id := range n.full {
			if !decided[id] {
				decided[id] = true
				out.RangeMatched = append(out.RangeMatched, id)
			}
		}
		if len(n.children) == 0 {
			// Resolve remaining partials directly.
			for _, id := range n.partial {
				if decided[id] {
					continue
				}
				decided[id] = true
				q := t.queries[id]
				if q.Range.Contains(v) {
					out.RangeMatched = append(out.RangeMatched, id)
				} else {
					out.RangeMismatched = append(out.RangeMismatched, id)
				}
			}
			break
		}
		var next *ipNode
		for _, c := range n.children {
			if containsPoint(c.lo, c.hi, v) {
				next = c
				break
			}
		}
		if next == nil {
			break // point outside the space: nothing more to decide
		}
		// Queries present in this node's RCIF but absent from the
		// child's are confined to other cells: range mismatch.
		childSet := map[int]bool{}
		for _, id := range next.full {
			childSet[id] = true
		}
		for _, id := range next.partial {
			childSet[id] = true
		}
		for _, id := range n.partial {
			if !decided[id] && !childSet[id] {
				decided[id] = true
				out.RangeMismatched = append(out.RangeMismatched, id)
			}
		}
		n = next
	}
	return out
}

func containsPoint(lo, hi, v []int64) bool {
	if len(v) < len(lo) {
		return false
	}
	for d := range lo {
		if v[d] < lo[d] || v[d] > hi[d] {
			return false
		}
	}
	return true
}

// ClauseGroup is one shared clause with its member queries — the
// grouping the engine uses to evaluate and prove each distinct clause
// once per block (the measurable benefit of the IP-tree, Fig. 12).
type ClauseGroup struct {
	Clause  core.Clause
	Queries []int
}

// ClauseGroups returns every distinct clause appearing in any
// registered query's *full* CNF (range clauses included), with the
// queries sharing it.
func (t *IPTree) ClauseGroups() ([]ClauseGroup, error) {
	byKey := map[string]*ClauseGroup{}
	var order []string
	for _, id := range sortedQueryIDs(t.queries) {
		q := t.queries[id]
		cnf, err := q.CNF()
		if err != nil {
			return nil, err
		}
		for _, cl := range cnf {
			k := cl.Key()
			g, ok := byKey[k]
			if !ok {
				g = &ClauseGroup{Clause: cl}
				byKey[k] = g
				order = append(order, k)
			}
			g.Queries = append(g.Queries, id)
		}
	}
	out := make([]ClauseGroup, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	return out, nil
}

// Depth returns the maximum depth reached (diagnostics and tests).
func (t *IPTree) Depth() int {
	var walk func(n *ipNode) int
	walk = func(n *ipNode) int {
		best := n.depth
		for _, c := range n.children {
			if d := walk(c); d > best {
				best = d
			}
		}
		return best
	}
	return walk(t.grid())
}

func sortIDs(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func sortedQueryIDs(m map[int]core.Query) []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sortIDs(out)
	return out
}
