package subscribe

import (
	"context"
	"fmt"
	"sync"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/multiset"
	"github.com/vchain-go/vchain/internal/proofs"
)

// Options configure the subscription engine.
type Options struct {
	// UseIPTree enables shared clause evaluation and proof reuse across
	// queries (§7.1). Without it every query is processed independently
	// (the "nip" baseline of Fig. 12).
	UseIPTree bool
	// Lazy defers mismatch proofs until a result appears (§7.2);
	// publications then cover multi-block spans. Requires nothing
	// special of the accumulator, but proof aggregation inside lazy
	// spans only happens when the accumulator supports it (acc2).
	Lazy bool
	// LazyThreshold bounds how many blocks may stay pending before a
	// resultless publication is forced ("the time since the last result
	// has passed a threshold", §7.2). Zero means 64.
	LazyThreshold int
	// Dims and Width describe the numeric space for the IP-tree.
	Dims, Width int
	// Proofs is the proof engine (required). Every block's proofs run
	// on its worker pool; pass the node's engine so subscriptions reuse
	// proofs cached by time-window queries (and vice versa).
	Proofs *proofs.Engine
}

// Effective values of the zero-valued Options fields. Exported so
// callers that compare options (e.g. the facade's conflict check) use
// the same defaults as the engine itself.
const (
	// DefaultLazyThreshold is the pending-block bound of §7.2.
	DefaultLazyThreshold = 64
	// DefaultDims is the numeric dimensionality.
	DefaultDims = 1
)

// DefaultMaxDepth caps the engine's IP-tree splitting.
const DefaultMaxDepth = 8

func (o Options) withDefaults() Options {
	if o.LazyThreshold <= 0 {
		o.LazyThreshold = DefaultLazyThreshold
	}
	if o.Dims <= 0 {
		o.Dims = DefaultDims
	}
	if o.Width <= 0 {
		o.Width = core.DefaultBitWidth
	}
	return o
}

// Publication is what the SP pushes to one subscriber: a span of blocks
// [From, To] together with a VO proving every block's contribution.
// The light client verifies it with the ordinary time-window verifier
// over that span.
type Publication struct {
	// QueryID identifies the subscription.
	QueryID int
	// From and To are the inclusive block heights covered.
	From, To int
	// VO is the span's verification object; its Results() are the
	// matching objects.
	VO *core.VO
}

// Engine is the SP-side subscription processor. Blocks are fed in
// height order via ProcessBlock; the engine returns the publications
// due after each block.
type Engine struct {
	// Acc is the accumulator shared with the chain.
	Acc accumulator.Accumulator
	// Opts are the engine options.
	Opts Options

	// proofs computes, parallelizes, and memoizes every disjointness
	// proof: across the queries sharing a block (on top of the
	// IP-tree's structural sharing), across blocks of a lazy span, and
	// — when the deployment shares one engine — across the one-shot SP
	// paths too.
	proofs *proofs.Engine

	mu       sync.Mutex
	subs     map[int]*subState
	nextID   int
	ipt      *IPTree
	iptDirty bool
}

type subState struct {
	id  int
	q   core.Query
	cnf core.CNF
	// pending holds unpublished block VOs, oldest first (lazy mode).
	pending []core.BlockVO
	// pendingFrom is the height of pending[0].
	pendingFrom int
}

// NewEngine creates a subscription engine proving on opts.Proofs,
// which must be set.
func NewEngine(acc accumulator.Accumulator, opts Options) *Engine {
	return &Engine{Acc: acc, Opts: opts.withDefaults(), proofs: opts.Proofs, subs: map[int]*subState{}}
}

// Register adds a subscription query (its block window fields are
// ignored) and returns its id.
func (e *Engine) Register(q core.Query) (int, error) {
	cnf, err := q.CNF()
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.nextID
	e.nextID++
	e.subs[id] = &subState{id: id, q: q, cnf: cnf, pendingFrom: -1}
	e.iptDirty = true
	return id, nil
}

// Deregister removes a subscription and returns its final pending
// publication, if any.
func (e *Engine) Deregister(id int) *Publication {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.subs[id]
	if !ok {
		return nil
	}
	delete(e.subs, id)
	e.iptDirty = true
	return e.flushLocked(s)
}

// Subscriptions returns the registered query ids.
func (e *Engine) Subscriptions() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return sortedStateIDs(e.subs)
}

// tree returns the current IP-tree, rebuilding lazily after
// registration churn.
func (e *Engine) tree() (*IPTree, error) {
	if !e.Opts.UseIPTree {
		return nil, nil
	}
	if e.ipt == nil || e.iptDirty {
		qs := make(map[int]core.Query, len(e.subs))
		for id, s := range e.subs {
			qs[id] = s.q
		}
		t, err := NewIPTree(e.Opts.Dims, e.Opts.Width, DefaultMaxDepth, qs)
		if err != nil {
			return nil, err
		}
		e.ipt = t
		e.iptDirty = false
	}
	return e.ipt, nil
}

// ProcessBlock evaluates every subscription against the newly confirmed
// block and returns due publications (§7). The SP calls it once per
// mined block, in order.
//
// It plans first and proves second: every subscription's block VO is
// built with its disjointness proofs scheduled on one run of the proof
// engine, one WaitCtx computes them all on the worker pool, and only
// then are publications assembled. Lazy collapses that need a fresh
// skip proof schedule it on the emptied run, which is waited once more
// before ProcessBlock returns.
func (e *Engine) ProcessBlock(ads *core.BlockADS, view core.ChainView) ([]Publication, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.subs) == 0 {
		return nil, nil
	}
	ctx := context.TODO() // ProcessBlock takes no context yet
	h := ads.Height
	ids := sortedStateIDs(e.subs)
	run := e.proofs.NewRun()
	decided, err := e.decide(ads, ids, run)
	if err != nil {
		return nil, err
	}
	sp := &core.SP{Acc: e.Acc, View: view, Engine: e.proofs}
	planned := make([]core.BlockVO, len(ids))
	for i, id := range ids {
		if m := decided[id]; m != nil {
			if node := core.RootMismatchVO(ads, m.clause); node != nil {
				m.nodes = append(m.nodes, node)
				planned[i] = core.BlockVO{Height: h, Tree: node}
				continue
			}
		}
		// The block (possibly) holds results, or its root carries no
		// digest (ModeNil): walk the one-block window, where no skip
		// fits, for the block's tree VO.
		q := e.subs[id].q
		q.StartBlock, q.EndBlock = h, h
		vo, err := sp.Walk(ctx, q, run)
		if err != nil {
			return nil, err
		}
		planned[i] = vo.Blocks[0]
	}
	if err := run.WaitCtx(ctx); err != nil {
		return nil, fmt.Errorf("subscribe: disjointness proof: %w", err)
	}

	var pubs []Publication
	for i, id := range ids {
		s := e.subs[id]
		if !e.Opts.Lazy {
			pubs = append(pubs, Publication{
				QueryID: id, From: h, To: h,
				VO: &core.VO{Blocks: []core.BlockVO{planned[i]}},
			})
			continue
		}
		if len(s.pending) == 0 {
			s.pendingFrom = h
		}
		s.pending = append(s.pending, planned[i])
		// A mismatch block stays pending until the threshold; a block
		// that may hold results publishes the span at once.
		if decided[id] != nil {
			if err := e.collapse(s, ads, view, run); err != nil {
				return nil, err
			}
			if len(s.pending) < e.Opts.LazyThreshold {
				continue
			}
		}
		pubs = append(pubs, *e.flushLocked(s))
	}
	if err := run.WaitCtx(ctx); err != nil {
		return nil, fmt.Errorf("subscribe: skip proof: %w", err)
	}
	return pubs, nil
}

// mismatch is a block-level decision: the whole block misses clause,
// and the queries it decides publish a root mismatch node citing it.
// Its proof is one task on the block's run, whose callback fills every
// node.
type mismatch struct {
	clause core.Clause
	nodes  []*core.NodeVO
}

// decide finds, without proving, the clause the whole block misses for
// each query that has one, and schedules one (BlockW, clause) proof per
// decision on run when the block's root carries a digest to cite it.
// With the IP-tree each distinct clause is tested and proved once for
// all the queries it decides; without it, per query.
func (e *Engine) decide(ads *core.BlockADS, ids []int, run *proofs.Run) (map[int]*mismatch, error) {
	decided := make(map[int]*mismatch, len(ids))
	schedule := func(clause core.Clause) *mismatch {
		m := &mismatch{clause: clause}
		if !ads.Root.HasDigest {
			// ModeNil: no root mismatch node can cite the proof
			// (RootMismatchVO returns nil), so only the decision is
			// kept; lazy mode still needs it.
			return m
		}
		run.Add(ads.BlockW, clause.Key(), clause.Multiset(), func(pf accumulator.Proof) {
			for _, n := range m.nodes {
				*n.Proof = pf
			}
		})
		return m
	}
	tree, err := e.tree()
	if err != nil {
		return nil, err
	}
	if tree == nil {
		for _, id := range ids {
			if clause, bad := e.subs[id].cnf.FindMismatch(ads.BlockW); bad {
				decided[id] = schedule(clause)
			}
		}
		return decided, nil
	}
	groups, err := tree.ClauseGroups()
	if err != nil {
		return nil, err
	}
	// Widely shared clauses first: each proof should decide as many
	// queries as possible, so the number of proofs never exceeds the
	// number of queries (the nip cost) and drops well below it when
	// queries share conditions — the Fig. 12 effect.
	sortGroupsByFanout(groups)
	for _, g := range groups {
		if g.Clause.Matches(ads.BlockW) {
			continue
		}
		// Prove the clause only if some still-undecided query needs it.
		var m *mismatch
		for _, id := range g.Queries {
			if _, done := decided[id]; done {
				continue
			}
			if _, ok := e.subs[id]; !ok {
				continue
			}
			if m == nil {
				m = schedule(g.Clause)
			}
			decided[id] = m
		}
	}
	return decided, nil
}

// collapse folds the trailing single-block mismatch entries of the
// pending span into the largest skip of ads whose distance d matches
// them (Alg. 5). Same-clause per-block proofs aggregate by ProofSum;
// any other skip proof is scheduled on run.
func (e *Engine) collapse(s *subState, ads *core.BlockADS, view core.ChainView, run *proofs.Run) error {
	var spans []multiset.Multiset // derived at the largest candidate skip
	for i := len(ads.Skips) - 1; i >= 0; i-- {
		d := ads.Skips[i].Distance
		if d > len(s.pending) {
			continue
		}
		tail := s.pending[len(s.pending)-d:]
		ok := true
		var clause core.Clause
		sameClause := true
		var pfs []accumulator.Proof
		for j, b := range tail {
			if b.Skip != nil || b.Tree == nil || b.Tree.Kind != core.KindMismatch ||
				b.Height != ads.Height-d+1+j {
				ok = false
				break
			}
			if clause == nil {
				clause = b.Tree.Clause
			} else if !clause.Equal(b.Tree.Clause) {
				sameClause = false
			}
			pfs = append(pfs, *b.Tree.Proof) // proved by the block's run
		}
		if !ok || clause == nil {
			continue
		}
		if spans == nil {
			var err error
			if spans, err = ads.SkipSpans(view, i, nil); err != nil {
				return fmt.Errorf("subscribe: %w", err)
			}
		}
		w := spans[i]
		// The skip's aggregated multiset must miss the clause we will
		// cite; if per-block clauses diverged, fall back to the first
		// clause that the aggregate misses.
		if !sameClause || clause.Matches(w) {
			cl, bad := s.cnf.FindMismatch(w)
			if !bad {
				continue
			}
			clause = cl
			sameClause = false
		}
		skip := ads.SkipVO(i, w, clause, e.Acc)
		if skip == nil {
			continue // over the key's capacity: try a smaller skip
		}
		if sameClause && e.Acc.SupportsAgg() {
			// Aggregate the already-computed per-block proofs (the
			// ProofSum path of §7.2) instead of proving from scratch.
			pf, err := e.Acc.ProofSum(pfs...)
			if err != nil {
				return fmt.Errorf("subscribe: skip proof sum: %w", err)
			}
			skip.Proof = pf
		} else {
			run.Add(w, clause.Key(), clause.Multiset(), func(pf accumulator.Proof) { skip.Proof = pf })
		}
		s.pending = append(s.pending[:len(s.pending)-d], core.BlockVO{Height: ads.Height, Skip: skip})
		return nil
	}
	return nil
}

// flushLocked publishes and clears a subscription's pending span.
func (e *Engine) flushLocked(s *subState) *Publication {
	if len(s.pending) == 0 {
		return nil
	}
	// Pending is oldest-first; the verifier wants newest-first.
	blocks := make([]core.BlockVO, len(s.pending))
	for i := range s.pending {
		blocks[len(s.pending)-1-i] = s.pending[i]
	}
	to := s.pending[len(s.pending)-1].Height
	pub := &Publication{
		QueryID: s.id,
		From:    s.pendingFrom,
		To:      to,
		VO:      &core.VO{Blocks: blocks},
	}
	s.pending = nil
	s.pendingFrom = -1
	return pub
}

// VerifyPublication checks a publication on the client side: the span
// VO is verified with the time-window machinery over [From, To] via
// core's span entry point (which also rejects malformed spans).
func VerifyPublication(v *core.Verifier, q core.Query, pub *Publication) ([]chain.Object, error) {
	return v.VerifySpan(q, pub.From, pub.To, pub.VO)
}

// sortGroupsByFanout orders clause groups by member count descending
// (ties: smaller clause first, then stable by key).
func sortGroupsByFanout(groups []ClauseGroup) {
	for i := 1; i < len(groups); i++ {
		for j := i; j > 0 && groupLess(&groups[j], &groups[j-1]); j-- {
			groups[j], groups[j-1] = groups[j-1], groups[j]
		}
	}
}

func groupLess(a, b *ClauseGroup) bool {
	if len(a.Queries) != len(b.Queries) {
		return len(a.Queries) > len(b.Queries)
	}
	if len(a.Clause) != len(b.Clause) {
		return len(a.Clause) < len(b.Clause)
	}
	return a.Clause.Key() < b.Clause.Key()
}

func sortedStateIDs(m map[int]*subState) []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sortIDs(out)
	return out
}
