package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/multiset"
	"github.com/vchain-go/vchain/internal/proofs"
)

// ErrADSUnavailable marks a window walk that could not fetch a block's
// ADS from the view — a storage fault (IO error, corrupt record, failed
// page-in re-verification), as opposed to a bad query or a proof that
// cannot be computed. The shard planner turns only this class of span
// failure into a degraded-read gap and breaker pressure.
var ErrADSUnavailable = errors.New("core: block ADS unavailable")

// SP is the service provider's query engine: a full node that answers
// time-window queries with verification objects. It reads blocks and
// their ADSs through a ChainView plus object access.
//
// All disjointness proofs are routed through a proofs.Engine, which
// memoizes (multiset, clause) pairs and executes deferred proof tasks
// on a bounded worker pool. Sharing one engine across SPs, repeated
// queries, and the subscription engine is where cross-query proof
// reuse (§6.3/§7) comes from.
type SP struct {
	// Acc is the shared accumulator construction.
	Acc accumulator.Accumulator
	// View provides blocks' ADSs and headers.
	View ChainView
	// Batch enables online batch verification (§6.3): mismatch proofs
	// sharing a clause are aggregated with Sum/ProofSum. Requires an
	// aggregating accumulator (acc2); silently ignored otherwise.
	Batch bool
	// Parallelism sets the proof-computation worker count (the paper's
	// SP runs 24 hyper-threads). Values ≤ 1 defer to the engine's
	// default; an engine default of 1 computes proofs inline.
	// Disjointness proofs dominate SP CPU, so this is where threads pay.
	Parallelism int
	// Engine is the shared proof engine. When nil, a private engine
	// without a cache is created per query (legacy standalone use);
	// FullNode.SP/SPWith always attach the node's shared engine.
	Engine *proofs.Engine
}

// engine returns the configured shared engine or a private uncached
// fallback matching the pre-engine semantics.
func (sp *SP) engine() *proofs.Engine {
	if sp.Engine != nil {
		return sp.Engine
	}
	return proofs.New(sp.Acc, proofs.Options{Workers: sp.Parallelism, CacheSize: -1})
}

// workers resolves the effective worker count for this SP.
func (sp *SP) workers(eng *proofs.Engine) int {
	if sp.Parallelism > 0 {
		return sp.Parallelism
	}
	return eng.Workers()
}

// canProve pre-checks that a deferred disjointness proof will succeed
// (capacity-wise) so skip decisions can be made before proofs exist.
func canProve(acc accumulator.Accumulator, w multiset.Multiset, clause Clause) bool {
	if max := acc.MaxCardinality(); max >= 0 {
		if w.Cardinality() > max || len(clause) > max {
			return false
		}
	}
	return true
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

// finalize computes one aggregated proof per group and returns them in
// insertion order. With a run, proof computation is deferred to the
// worker pool.
func (b *aggVO) finalize(run *proofs.Run) ([]MismatchGroup, error) {
	out := make([]MismatchGroup, len(b.clauses))
	for i, cl := range b.clauses {
		out[i] = MismatchGroup{Clause: cl}
	}
	err := b.agg.Finalize(run, func(i int, pf accumulator.Proof) { out[i].Proof = pf })
	if err != nil {
		return nil, fmt.Errorf("core: batched proof: %w", err)
	}
	return out, nil
}

// TimeWindowQuery processes q over [q.StartBlock, q.EndBlock] and
// returns the VO (Alg. 4 with Alg. 3 inside, or the basic per-object
// Alg. 1 when no index exists). The result set is embedded in the VO
// (VO.Results()).
func (sp *SP) TimeWindowQuery(q Query) (*VO, error) {
	return sp.TimeWindowQueryCtx(context.Background(), q)
}

// TimeWindowQueryCtx is TimeWindowQuery under a deadline: the
// end-to-start walk checks the context once per block, and the
// deferred proof run fails its remaining tasks fast once the context
// ends — so a caller's timeout propagates all the way into the proof
// engine instead of a slow window pinning SP goroutines forever.
func (sp *SP) TimeWindowQueryCtx(ctx context.Context, q Query) (*VO, error) {
	cnf, err := q.CNF()
	if err != nil {
		return nil, err
	}
	if q.StartBlock < 0 || q.EndBlock < q.StartBlock {
		return nil, fmt.Errorf("core: invalid block window [%d, %d]", q.StartBlock, q.EndBlock)
	}
	eng := sp.engine()
	vo := &VO{}
	var batch *aggVO
	if sp.Batch && sp.Acc.SupportsAgg() {
		batch = newAggVO(eng)
	}
	workers := sp.workers(eng)
	var run *proofs.Run
	if workers > 1 {
		run = eng.NewRun()
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
		if skip := sp.trySkip(ads, cnf, q.StartBlock, eng, run); skip != nil {
			vo.Blocks = append(vo.Blocks, BlockVO{Height: h, Skip: skip})
			h -= skip.Distance
			continue
		}
		tree, err := sp.blockTreeVO(ads, cnf, batch, eng, run)
		if err != nil {
			return nil, err
		}
		vo.Blocks = append(vo.Blocks, BlockVO{Height: h, Tree: tree})
		h--
	}

	if batch != nil {
		groups, err := batch.finalize(run)
		if err != nil {
			return nil, err
		}
		vo.Groups = groups
	}
	if run != nil {
		if err := run.WaitCtx(ctx, workers); err != nil {
			return nil, fmt.Errorf("core: parallel proof: %w", err)
		}
	}
	return vo, nil
}

// trySkip returns the largest skip at ads.Height that stays within the
// window and is provably disjoint from some clause, or nil.
func (sp *SP) trySkip(ads *BlockADS, cnf CNF, startBlock int, eng *proofs.Engine, run *proofs.Run) *SkipVO {
	for i := len(ads.Skips) - 1; i >= 0; i-- {
		entry := &ads.Skips[i]
		if ads.Height-entry.Distance+1 < startBlock {
			continue // would overshoot the window
		}
		clause, ok := cnf.FindMismatch(entry.W)
		if !ok {
			continue
		}
		if !canProve(sp.Acc, entry.W, clause) {
			// Over the key's capacity: fall back to smaller skips or
			// per-block processing rather than failing the query.
			continue
		}
		out := &SkipVO{
			Distance: entry.Distance,
			Clause:   clause,
			Digest:   entry.Digest,
			PrevHash: entry.PrevHash,
		}
		if run != nil {
			run.Add(entry.W, clause.Key(), clause.Multiset(), func(pf accumulator.Proof) { out.Proof = pf })
		} else {
			pf, err := eng.Prove(entry.W, clause.Key(), clause.Multiset())
			if err != nil {
				continue // e.g. hash collision: try a smaller skip
			}
			out.Proof = pf
		}
		siblings := make(map[int]chain.Digest, len(ads.Skips)-1)
		for j := range ads.Skips {
			if j == i {
				continue
			}
			siblings[ads.Skips[j].Distance] = ads.Skips[j].hashEntry(sp.Acc)
		}
		out.Siblings = siblings
		return out
	}
	return nil
}

// BlockTreeVO runs the single-block traversal (Alg. 3) and returns its
// tree VO. The subscription engine publishes these for matching blocks;
// with a parallel engine the tree's mismatch proofs are computed on the
// worker pool.
func (sp *SP) BlockTreeVO(ads *BlockADS, cnf CNF) (*NodeVO, error) {
	eng := sp.engine()
	workers := sp.workers(eng)
	var run *proofs.Run
	if workers > 1 {
		run = eng.NewRun()
	}
	node, err := sp.blockTreeVO(ads, cnf, nil, eng, run)
	if err != nil {
		return nil, err
	}
	if run != nil {
		if err := run.Wait(workers); err != nil {
			return nil, fmt.Errorf("core: parallel proof: %w", err)
		}
	}
	return node, nil
}

// RootMismatchVO builds the block-level mismatch entry subscriptions
// publish when an entire block provably misses a clause: the root's
// digest, pre-hash, and a disjointness proof. It returns nil when the
// root carries no digest (ModeNil), in which case the caller must fall
// back to a full traversal.
func RootMismatchVO(ads *BlockADS, clause Clause, pf accumulator.Proof) *NodeVO {
	root := ads.Root
	if !root.HasDigest {
		return nil
	}
	var pre chain.Digest
	if root.IsLeaf() {
		pre = leafPreHash(root.Obj.Hash())
	} else {
		pre = internalPreHash(root.Left.Hash, root.Right.Hash)
	}
	return &NodeVO{
		Kind:      KindMismatch,
		Digest:    root.Digest,
		HasDigest: true,
		PreHash:   pre,
		Clause:    clause,
		Proof:     &pf,
		Group:     -1,
	}
}

// blockTreeVO runs Alg. 3 over one block's intra index (which in
// ModeNil is the plain tree whose internal nodes carry no digests, so
// traversal always reaches the leaves).
func (sp *SP) blockTreeVO(ads *BlockADS, cnf CNF, batch *aggVO, eng *proofs.Engine, run *proofs.Run) (*NodeVO, error) {
	var build func(n *IntraNode) (*NodeVO, error)
	build = func(n *IntraNode) (*NodeVO, error) {
		// Prunable node: carries a digest and mismatches some clause.
		if n.HasDigest {
			if clause, bad := cnf.FindMismatch(n.W); bad {
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
				switch {
				case batch != nil:
					batch.add(out, n.W, clause)
				case run != nil:
					run.Add(n.W, clause.Key(), clause.Multiset(), func(pf accumulator.Proof) { out.Proof = &pf })
				default:
					pf, err := eng.Prove(n.W, clause.Key(), clause.Multiset())
					if err != nil {
						return nil, fmt.Errorf("core: mismatch proof: %w", err)
					}
					out.Proof = &pf
				}
				return out, nil
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
			}, nil
		}
		l, err := build(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := build(n.Right)
		if err != nil {
			return nil, err
		}
		return &NodeVO{
			Kind:      KindExpand,
			Digest:    n.Digest,
			HasDigest: n.HasDigest,
			Left:      l,
			Right:     r,
			Group:     -1,
		}, nil
	}
	return build(ads.Root)
}
