package core

import (
	"fmt"
	"sort"
	"strings"

	"github.com/vchain-go/vchain/internal/multiset"
)

// Clause is one OR-set of a CNF Boolean function: it is satisfied by an
// object whose attribute multiset intersects it. Elements are kept
// sorted and deduplicated so that clause identity is canonical.
type Clause []string

// NewClause builds a canonical clause from elements.
func NewClause(elems ...string) Clause {
	seen := make(map[string]struct{}, len(elems))
	out := make(Clause, 0, len(elems))
	for _, e := range elems {
		if _, ok := seen[e]; ok {
			continue
		}
		seen[e] = struct{}{}
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// KeywordClause builds a clause of raw keywords (namespacing them).
func KeywordClause(kws ...string) Clause {
	out := make([]string, len(kws))
	for i, k := range kws {
		out[i] = KeywordElement(k)
	}
	return NewClause(out...)
}

// Key returns the canonical identity string of the clause.
func (c Clause) Key() string { return strings.Join(c, "\x00") }

// Equal reports clause identity.
func (c Clause) Equal(o Clause) bool { return c.Key() == o.Key() }

// Multiset renders the clause as a multiplicity-1 multiset — the
// "equivalence set" fed to the accumulator on the verifier side.
func (c Clause) Multiset() multiset.Multiset { return multiset.New(c...) }

// Matches reports whether the clause intersects w.
func (c Clause) Matches(w multiset.Multiset) bool { return w.IntersectsSet(c) }

// CNF is a monotone Boolean function in conjunctive normal form: the
// AND of its clauses (§3: ϒ; §5.1: interpreted as a list of sets).
type CNF []Clause

// Match reports whether every clause intersects w.
func (f CNF) Match(w multiset.Multiset) bool {
	for _, c := range f {
		if !c.Matches(w) {
			return false
		}
	}
	return true
}

// FindMismatch returns some clause disjoint from w, or ok=false when w
// matches the whole CNF. The SP uses it to pick the equivalence set for
// a disjointness proof (Alg. 1); picking the smallest disjoint clause
// keeps proofs cheap.
func (f CNF) FindMismatch(w multiset.Multiset) (Clause, bool) {
	var best Clause
	for _, c := range f {
		if !c.Matches(w) {
			if best == nil || len(c) < len(best) {
				best = c
			}
		}
	}
	return best, best != nil
}

// ContainsClause reports whether cl is one of the CNF's clauses — the
// verifier-side check that a disjointness proof actually refers to the
// query.
func (f CNF) ContainsClause(cl Clause) bool {
	k := cl.Key()
	for _, c := range f {
		if c.Key() == k {
			return true
		}
	}
	return false
}

func (f CNF) String() string {
	parts := make([]string, len(f))
	for i, c := range f {
		parts[i] = "(" + strings.Join(c, " ∨ ") + ")"
	}
	return strings.Join(parts, " ∧ ")
}

// RangeCond is a multi-dimensional inclusive range selection predicate
// [α, β] over the numeric attributes.
type RangeCond struct {
	// Lo and Hi are the per-dimension inclusive bounds; they must have
	// equal lengths.
	Lo, Hi []int64
}

// Contains reports whether v satisfies the predicate. A vector shorter
// than the predicate fails.
func (r *RangeCond) Contains(v []int64) bool {
	if r == nil {
		return true
	}
	if len(v) < len(r.Lo) {
		return false
	}
	for d := range r.Lo {
		if v[d] < r.Lo[d] || v[d] > r.Hi[d] {
			return false
		}
	}
	return true
}

// Query is a Boolean range query. Time-window queries bound the block
// range [StartBlock, EndBlock]; subscription queries are registered
// against future blocks and carry no window (§3).
type Query struct {
	// StartBlock and EndBlock delimit the inclusive block-height window
	// of a time-window query. The public facade translates timestamp
	// windows into block windows before reaching this layer.
	StartBlock, EndBlock int
	// Range is the optional numeric range predicate [α, β].
	Range *RangeCond
	// Bool is the monotone Boolean function ϒ over raw keywords,
	// already namespaced into elements (use KeywordClause).
	Bool CNF
	// Width is the numeric bit width; zero means DefaultBitWidth.
	Width int
}

// BitWidth returns the effective numeric bit width.
func (q Query) BitWidth() int {
	if q.Width <= 0 {
		return DefaultBitWidth
	}
	return q.Width
}

// CNF returns the unified Boolean condition ϒ' = trans([α,β]) ∧ ϒ of
// §5.3: range-cover clauses for each dimension followed by the keyword
// clauses. It is the one validation of a query's condition, shared by
// every front door: a query without a condition, with an empty clause
// (which no object satisfies), or with an invalid range is an error.
func (q Query) CNF() (CNF, error) {
	var out CNF
	if q.Range != nil {
		rc, err := RangeClauses(q.Range.Lo, q.Range.Hi, q.BitWidth())
		if err != nil {
			return nil, err
		}
		out = append(out, rc...)
	}
	for i, c := range q.Bool {
		if len(c) == 0 {
			return nil, fmt.Errorf("core: empty OR-clause %d in the Boolean condition", i)
		}
	}
	out = append(out, q.Bool...)
	if len(out) == 0 {
		return nil, fmt.Errorf("core: query has no condition")
	}
	return out, nil
}

// MatchesObject evaluates the query predicate directly on an object's
// raw attributes — the ground truth the verifiable pipeline must agree
// with (used by verification and by tests).
func (q Query) MatchesObject(v []int64, w []string) bool {
	if !q.Range.Contains(v) {
		return false
	}
	return q.Bool.Match(multiset.New(appendKeywords(nil, w)...))
}
