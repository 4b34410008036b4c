package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/multiset"
	"github.com/vchain-go/vchain/internal/proofs"
)

// ErrADSUnavailable marks a window walk that could not fetch a block's
// ADS from the view — a storage fault (IO error, corrupt record, failed
// page-in re-verification), as opposed to a bad query or a proof that
// cannot be computed. A degraded window read turns only this class of
// failure into a gap, charged to the slot owning the failing height.
var ErrADSUnavailable = errors.New("core: block ADS unavailable")

// SP is the service provider's query engine: a full node that answers
// time-window queries with verification objects. It reads blocks and
// their ADSs through a ChainView plus object access.
//
// All disjointness proofs are scheduled on a proofs.Run of the SP's
// engine, which memoizes (multiset, clause) pairs and computes them on
// up to GOMAXPROCS goroutines. Sharing one engine across SPs, repeated
// queries, and the subscription engine is where cross-query proof reuse
// (§6.3/§7) comes from.
type SP struct {
	// Acc is the shared accumulator construction.
	Acc accumulator.Accumulator
	// View provides blocks' ADSs and headers.
	View ChainView
	// Batch enables online batch verification (§6.3): mismatch proofs
	// sharing a clause are aggregated with Sum/ProofSum. Requires an
	// aggregating accumulator (acc2); silently ignored otherwise.
	Batch bool
	// Engine is the proof engine (required). FullNode.SP attaches the
	// node's shared engine.
	Engine *proofs.Engine
}

// aggVO adapts the engine's same-clause Aggregator to VO assembly: it
// tracks which Clause owns each group index and materializes the
// MismatchGroup list.
type aggVO struct {
	agg     *proofs.Aggregator
	clauses []Clause
}

func newAggVO(eng *proofs.Engine) *aggVO {
	return &aggVO{agg: eng.NewAggregator()}
}

// add registers a mismatching node into its clause group.
func (b *aggVO) add(n *NodeVO, w multiset.Multiset, clause Clause) {
	idx := b.agg.Add(clause.Key(), w, clause.Multiset())
	if idx == len(b.clauses) {
		b.clauses = append(b.clauses, clause)
	}
	n.Group = idx
}

// finalize schedules one aggregated proof per group on run and returns
// the groups in insertion order; their proofs land during Run.Wait.
func (b *aggVO) finalize(run *proofs.Run) []MismatchGroup {
	out := make([]MismatchGroup, len(b.clauses))
	for i, cl := range b.clauses {
		out[i] = MismatchGroup{Clause: cl}
	}
	b.agg.Finalize(run, func(i int, pf accumulator.Proof) { out[i].Proof = pf })
	return out
}

// TimeWindowQuery processes q over [q.StartBlock, q.EndBlock] and
// returns the VO (Alg. 4 with Alg. 3 inside, or the basic per-object
// Alg. 1 when no index exists). The result set is embedded in the VO
// (VO.Results()). The end-to-start walk checks ctx once per block, and
// the deferred proof run fails its remaining tasks fast once ctx ends —
// so a caller's timeout propagates all the way into the proof engine
// instead of a slow window pinning SP goroutines forever.
func (sp *SP) TimeWindowQuery(ctx context.Context, q Query) (*VO, error) {
	run := sp.Engine.NewRun()
	vo, err := sp.Walk(ctx, q, run)
	if err != nil {
		return nil, err
	}
	if err := run.WaitCtx(ctx); err != nil {
		return nil, fmt.Errorf("core: disjointness proof: %w", err)
	}
	return vo, nil
}

// Walk plans q's answer without proving it: it walks the window end to
// start, returns the VO, and schedules every disjointness proof the VO
// needs on run. The VO is complete once run.WaitCtx returns nil. One
// run can carry several windows' walks; on error Walk leaves run as it
// found it, so the caller can drop the failed window and prove the
// rest.
func (sp *SP) Walk(ctx context.Context, q Query, run *proofs.Run) (vo *VO, err error) {
	defer func(mark int) {
		if err != nil {
			run.Truncate(mark)
		}
	}(run.Len())
	cnf, err := q.CNF()
	if err != nil {
		return nil, err
	}
	if q.StartBlock < 0 || q.EndBlock < q.StartBlock {
		return nil, fmt.Errorf("core: invalid block window [%d, %d]", q.StartBlock, q.EndBlock)
	}
	vo = &VO{}
	var batch *aggVO
	if sp.Batch && sp.Acc.SupportsAgg() {
		batch = newAggVO(sp.Engine)
	}

	h := q.EndBlock
	for h >= q.StartBlock {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: window walk at height %d: %w", h, err)
		}
		ads, err := sp.View.ADSAt(h)
		if err != nil {
			return nil, fmt.Errorf("core: window walk at height %d: %w: %w", h, ErrADSUnavailable, err)
		}
		if ads == nil {
			return nil, fmt.Errorf("core: no ADS at height %d", h)
		}
		// Try the largest usable skip first (Alg. 4): it must stay
		// inside the window and its aggregated multiset must mismatch
		// some clause.
		skip, err := sp.trySkip(ads, cnf, q.StartBlock, run)
		if err != nil {
			return nil, fmt.Errorf("core: window walk at height %d: %w", h, err)
		}
		if skip != nil {
			vo.Blocks = append(vo.Blocks, BlockVO{Height: h, Skip: skip})
			h -= skip.Distance
			continue
		}
		vo.Blocks = append(vo.Blocks, BlockVO{Height: h, Tree: sp.blockTreeVO(ads, cnf, batch, run)})
		h--
	}

	if batch != nil {
		vo.Groups = batch.finalize(run)
	}
	return vo, nil
}

// trySkip returns the largest skip at ads.Height that stays within the
// window and mismatches some clause, or nil (PlanSkip). The skip's
// proof is scheduled on run.
func (sp *SP) trySkip(ads *BlockADS, cnf CNF, startBlock int, run *proofs.Run) (*SkipVO, error) {
	skip, w, err := ads.PlanSkip(sp.View, sp.Acc, startBlock, func(_ int, w multiset.Multiset) (Clause, bool) {
		return cnf.FindMismatch(w)
	})
	if skip != nil {
		run.Add(w, skip.Clause.Key(), skip.Clause.Multiset(), func(pf accumulator.Proof) { skip.Proof = pf })
	}
	return skip, err
}

// PlanSkip is the one skip choice of the window walk (Alg. 4) and of
// lazy subscription spans (Alg. 5): it returns the VO entry of a's
// largest skip that covers no block below lowest and whose span misses
// the clause pick chooses, with the span's multiset, or nil when no
// skip qualifies. pick gets the first covered height and the span's
// multiset; it must reject every span that contains one it rejected,
// as "matches the CNF" does, because deriving the spans, which pages in
// the covered blocks, stops at the first span pick rejects. A skip over
// acc's key capacity is passed over for a smaller one. The caller fills
// the entry's proof.
func (a *BlockADS) PlanSkip(view ChainView, acc accumulator.Accumulator, lowest int,
	pick func(from int, w multiset.Multiset) (Clause, bool)) (*SkipVO, multiset.Multiset, error) {
	top := len(a.Skips) - 1
	for top >= 0 && a.Height-a.Skips[top].Distance+1 < lowest {
		top--
	}
	if top < 0 {
		return nil, nil, nil
	}
	var clauses []Clause // clauses[i] is pick's clause for span i
	spans, err := a.skipSpans(view, top, func(w multiset.Multiset) bool {
		cl, ok := pick(a.Height-a.Skips[len(clauses)].Distance+1, w)
		if ok {
			clauses = append(clauses, cl)
		}
		return ok
	})
	if err != nil {
		return nil, nil, err
	}
	for i := len(clauses) - 1; i >= 0; i-- {
		if out := a.skipVO(i, spans[i], clauses[i], acc); out != nil {
			return out, spans[i], nil
		}
	}
	return nil, nil, nil
}

// skipVO builds the VO entry that cites skip entry i, whose span
// multiset is w (see skipSpans), against clause: the entry's distance,
// digest and landing hash plus the commitment leaves of its siblings.
// The caller fills the proof. It returns nil when acc's key is too
// small to prove w disjoint from clause.
func (a *BlockADS) skipVO(i int, w multiset.Multiset, clause Clause, acc accumulator.Accumulator) *SkipVO {
	entry := &a.Skips[i]
	if max := acc.MaxCardinality(); max >= 0 && (w.Cardinality() > max || len(clause) > max) {
		return nil
	}
	siblings := make(map[int]chain.Digest, len(a.Skips)-1)
	for j := range a.Skips {
		if j != i {
			siblings[a.Skips[j].Distance] = a.Skips[j].hashEntry(acc)
		}
	}
	return &SkipVO{
		Distance: entry.Distance,
		Clause:   clause,
		Digest:   entry.Digest,
		PrevHash: entry.PrevHash,
		Siblings: siblings,
	}
}

// MismatchVO builds the VO node that prunes n, which carries a digest,
// as missing clause: n's digest and pre-hash. Its proof is the caller's
// to fill, or its batch group's. The window walk builds one at any
// node, and subscriptions at a block root that misses a clause.
func MismatchVO(n *IntraNode, clause Clause) *NodeVO {
	out := &NodeVO{
		Kind:      KindMismatch,
		Digest:    n.Digest,
		HasDigest: true,
		Clause:    clause,
		Group:     -1,
	}
	if n.IsLeaf() {
		out.PreHash = leafPreHash(n.Obj.Hash())
	} else {
		out.PreHash = internalPreHash(n.Left.Hash, n.Right.Hash)
	}
	return out
}

// findMismatch is cnf.FindMismatch of n's multiset at the bit width,
// decided against the objects below n without building a multiset: a
// union is disjoint from a clause exactly when each of its leaves is.
func findMismatch(cnf CNF, n *IntraNode, width int) (Clause, bool) {
	var best Clause
	for _, c := range cnf {
		if (best == nil || len(c) < len(best)) && !matchesBelow(c, n, width) {
			best = c
		}
	}
	return best, best != nil
}

// matchesBelow reports whether clause c intersects the multiset of some
// leaf below n.
func matchesBelow(c Clause, n *IntraNode, width int) bool {
	if n.IsLeaf() {
		return slices.ContainsFunc(c, func(e string) bool { return objectHas(n.Obj, width, e) })
	}
	return matchesBelow(c, n.Left, width) || matchesBelow(c, n.Right, width)
}

// blockTreeVO runs Alg. 3 over one block's intra index (which in
// ModeNil is the plain tree whose internal nodes carry no digests, so
// traversal always reaches the leaves). Mismatch proofs join their
// batch group or, unbatched, are scheduled on run. Only a node that
// gets proven needs its multiset: the block's BlockW at the root, else
// the union IntraNode.Multiset derives.
func (sp *SP) blockTreeVO(ads *BlockADS, cnf CNF, batch *aggVO, run *proofs.Run) *NodeVO {
	var build func(n *IntraNode) *NodeVO
	build = func(n *IntraNode) *NodeVO {
		// Prunable node: carries a digest and mismatches some clause.
		if n.HasDigest {
			if clause, bad := findMismatch(cnf, n, ads.Width); bad {
				var w multiset.Multiset
				if n == ads.Root {
					w = ads.BlockW()
				} else {
					w = n.Multiset(ads.Width)
				}
				out := MismatchVO(n, clause)
				if batch != nil {
					batch.add(out, w, clause)
				} else {
					run.Add(w, clause.Key(), clause.Multiset(), func(pf accumulator.Proof) { out.Proof = &pf })
				}
				return out
			}
		}
		if n.IsLeaf() {
			// The leaf's multiset matches the whole CNF: a result.
			obj := n.Obj.Clone()
			return &NodeVO{
				Kind:      KindResult,
				Obj:       &obj,
				Digest:    n.Digest,
				HasDigest: n.HasDigest,
				Group:     -1,
			}
		}
		// Left before right: batch group indexes follow traversal order.
		l := build(n.Left)
		r := build(n.Right)
		return &NodeVO{
			Kind:      KindExpand,
			Digest:    n.Digest,
			HasDigest: n.HasDigest,
			Left:      l,
			Right:     r,
			Group:     -1,
		}
	}
	return build(ads.Root)
}
