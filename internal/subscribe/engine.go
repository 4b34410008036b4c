// Package subscribe implements vChain's verifiable subscription queries
// (§7): one publisher that holds each subscription's blocks in a
// pending span and publishes the span with its VO once a block may hold
// results, shared processing of the registered queries (§7.1), and
// lazy authentication (§7.2, Alg. 5), which keeps mismatch blocks
// pending until the span covers a threshold of blocks and aggregates
// their proofs. Real-time publishing is the threshold-one case.
//
// A pending span's trailing run of mismatch blocks folds into a skip
// through core's one skip choice (core.BlockADS.PlanSkip), the one the
// time-window walk uses, preferring the clause the covered blocks
// share so that their proofs sum into the skip's. A subscription whose
// clause cannot be proved against a block (a hash-encoder collision)
// is dropped alone; the other subscriptions publish as usual
// (DroppedError).
//
// Of the IP-tree of §7.1 the engine keeps the Boolean Condition
// Inverted File (BCIF): each distinct clause with the queries sharing
// it, so the SP tests and proves each clause once per block (Fig. 12).
// It builds no grid of cells with Range Condition Inverted Files and
// no single-object traversal: the engine decides whole blocks, and a
// block-level decision reads only the clause groups, range-prefix
// clauses included.
//
// Publications are spans of time-window VOs, so the light client
// verifies them with exactly the same machinery as one-shot queries.
package subscribe

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
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
	// queries (§7.1): the engine groups the registered queries by
	// clause (the IP-tree's BCIF) and proves each group's clause once.
	// The tree's grid of cells with their RCIFs is not built: a
	// block-level decision reads only the clause groups. Without it
	// every query is processed independently (the "nip" baseline of
	// Fig. 12).
	UseIPTree bool
	// LazyThreshold bounds a pending span before a resultless
	// publication is forced ("the time since the last result has passed
	// a threshold", §7.2). 0 or 1 publishes every block; n > 1 holds
	// mismatch blocks back until the span covers n blocks, collapsing
	// them into skips on the way and aggregating their proofs when the
	// accumulator supports it (acc2).
	LazyThreshold int
	// Dims and Width are unused: the engine builds no grid over the
	// numeric space. They remain for callers that still set them.
	Dims, Width int
	// Proofs is the proof engine (required). Every block's proofs run
	// on one of its runs; pass the node's engine so subscriptions reuse
	// proofs cached by time-window queries (and vice versa).
	Proofs *proofs.Engine
}

// DefaultLazyThreshold is the §7.2 pending-span bound that the
// lazy examples and figures use.
const DefaultLazyThreshold = 64

func (o Options) withDefaults() Options {
	o.LazyThreshold = max(o.LazyThreshold, 1)
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
	// acc is the accumulator shared with the chain.
	acc  accumulator.Accumulator
	opts Options

	// proofs computes, parallelizes, and memoizes every disjointness
	// proof: across the queries sharing a block (on top of the clause
	// groups' structural sharing), across blocks of a lazy span, and
	// — when the deployment shares one engine — across the one-shot SP
	// paths too.
	proofs *proofs.Engine

	mu     sync.Mutex
	subs   map[int]*subState
	nextID int
	// groups caches clauseGroups; Register and Deregister clear it.
	groups []clauseGroup
}

// clauseGroup is one shared clause with its member queries: a row of
// the IP-tree's BCIF (§7.1) over the whole space.
type clauseGroup struct {
	Clause  core.Clause
	Queries []int
}

type subState struct {
	id  int
	q   core.Query
	cnf core.CNF
	// pending holds unpublished block VOs, oldest first.
	pending []core.BlockVO
	// pendingFrom is the height of pending[0].
	pendingFrom int
}

// NewEngine creates a subscription engine proving on opts.Proofs,
// which must be set.
func NewEngine(acc accumulator.Accumulator, opts Options) *Engine {
	return &Engine{acc: acc, opts: opts.withDefaults(), proofs: opts.Proofs, subs: map[int]*subState{}}
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
	e.groups = nil
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
	e.groups = nil
	return e.flushLocked(s)
}

// Subscriptions returns the registered query ids.
func (e *Engine) Subscriptions() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return sortedStateIDs(e.subs)
}

// clauseGroups returns every distinct clause of the registered
// queries' full CNFs (range clauses included) with the queries sharing
// it, members in id order, widest first (sortGroupsByFanout). It is
// built from the CNFs computed at Register and reused until the next
// Register or Deregister.
func (e *Engine) clauseGroups() []clauseGroup {
	if e.groups != nil {
		return e.groups
	}
	byKey := map[string]int{}
	for _, id := range sortedStateIDs(e.subs) {
		for _, cl := range e.subs[id].cnf {
			k := cl.Key()
			i, ok := byKey[k]
			if !ok {
				i = len(e.groups)
				byKey[k] = i
				e.groups = append(e.groups, clauseGroup{Clause: cl})
			}
			e.groups[i].Queries = append(e.groups[i].Queries, id)
		}
	}
	// Widely shared clauses first: each proof should decide as many
	// queries as possible, so the number of proofs never exceeds the
	// number of queries (the nip cost) and drops well below it when
	// queries share conditions — the Fig. 12 effect.
	sortGroupsByFanout(e.groups)
	return e.groups
}

// ProcessBlock evaluates every subscription against the newly confirmed
// block and returns due publications (§7). The SP calls it once per
// mined block, in order.
//
// It plans first and proves second: every subscription's block VO is
// built with its disjointness proofs scheduled on one run of the proof
// engine, one WaitCtx computes them all in parallel, and only
// then are publications assembled. Every subscription appends the
// block to its pending span and publishes the span through flushLocked
// once the block may hold results or the span covers LazyThreshold
// blocks (at threshold 1, every block). Span collapses that need a
// fresh skip proof schedule it on the emptied run, which is waited
// once more before ProcessBlock returns.
//
// A proof that cannot be computed (a clause whose encoding collides
// with an element of the block, say) fails only the subscriptions
// whose VO needs it: they are dropped, and ProcessBlock returns the
// other subscriptions' publications with a *DroppedError naming them.
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
	decided := e.decide(ads, ids, run)
	sp := &core.SP{Acc: e.acc, View: view, Engine: e.proofs}
	planned := make([]core.BlockVO, len(ids))
	for i, id := range ids {
		if n := decided[id]; n != nil {
			planned[i] = core.BlockVO{Height: h, Tree: n}
			continue
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
	// unproved holds the subscriptions whose VO lacks a proof: a failed
	// task leaves its mismatch node's Proof nil, and a fresh skip proof
	// clears its subscription's entry when it lands.
	unproved := map[int]bool{}
	proofErr := run.WaitCtx(ctx)
	if proofErr != nil {
		for i, id := range ids {
			if !proved(planned[i].Tree) {
				unproved[id] = true
			}
		}
	}

	var pubs []Publication
	for i, id := range ids {
		if unproved[id] {
			continue
		}
		s := e.subs[id]
		if len(s.pending) == 0 {
			s.pendingFrom = h
		}
		s.pending = append(s.pending, planned[i])
		// A mismatch block stays pending until the span holds
		// LazyThreshold blocks; a block that may hold results publishes
		// the span at once.
		if _, ok := decided[id]; ok {
			if err := e.collapse(s, ads, view, run, unproved); err != nil {
				return nil, err
			}
			if h-s.pendingFrom+1 < e.opts.LazyThreshold {
				continue
			}
		}
		pubs = append(pubs, *e.flushLocked(s))
	}
	if err := run.WaitCtx(ctx); proofErr == nil {
		proofErr = err
	}
	if proofErr == nil {
		return pubs, nil
	}
	if len(unproved) == 0 {
		return nil, fmt.Errorf("subscribe: disjointness proof: %w", proofErr)
	}
	pubs = slices.DeleteFunc(pubs, func(p Publication) bool { return unproved[p.QueryID] })
	dropped := slices.Sorted(maps.Keys(unproved))
	for _, id := range dropped {
		delete(e.subs, id)
	}
	e.groups = nil
	return pubs, &DroppedError{IDs: dropped, Err: proofErr}
}

// DroppedError reports the subscriptions that ProcessBlock dropped
// because a disjointness proof their block VO needs could not be
// computed. They are deregistered without a final publication; every
// other subscription was processed as usual.
type DroppedError struct {
	// IDs are the dropped subscriptions, ascending.
	IDs []int
	// Err is the first proof failure.
	Err error
}

func (e *DroppedError) Error() string {
	return fmt.Sprintf("subscribe: dropped subscriptions %v: disjointness proof: %v", e.IDs, e.Err)
}

func (e *DroppedError) Unwrap() error { return e.Err }

// proved reports whether every mismatch node of a block VO's tree holds
// its proof.
func proved(n *core.NodeVO) bool {
	if n == nil {
		return true
	}
	if n.Kind == core.KindMismatch {
		return n.Proof != nil
	}
	return proved(n.Left) && proved(n.Right)
}

// decide finds, without proving, the clause the whole block misses for
// each query that has one. A decision is the block's root mismatch
// node citing that clause, with its (BlockW, clause) proof scheduled on
// run; in ModeNil, whose root carries no digest to cite it, it is nil.
// With UseIPTree each distinct clause is tested and proved once, in
// one node, for all the queries it decides; without it, per query.
func (e *Engine) decide(ads *core.BlockADS, ids []int, run *proofs.Run) map[int]*core.NodeVO {
	decided := make(map[int]*core.NodeVO, len(ids))
	blockW := ads.BlockW()
	schedule := func(clause core.Clause) *core.NodeVO {
		if !ads.Root.HasDigest {
			// ModeNil: only the decision is kept: it still holds the
			// block in the pending span.
			return nil
		}
		n := core.MismatchVO(ads.Root, clause)
		run.Add(blockW, clause.Key(), clause.Multiset(), func(pf accumulator.Proof) { n.Proof = &pf })
		return n
	}
	if !e.opts.UseIPTree {
		for _, id := range ids {
			if clause, bad := e.subs[id].cnf.FindMismatch(blockW); bad {
				decided[id] = schedule(clause)
			}
		}
		return decided
	}
	for _, g := range e.clauseGroups() {
		if g.Clause.Matches(blockW) {
			continue
		}
		// Prove the clause only if some still-undecided query needs it.
		var n *core.NodeVO
		for _, id := range g.Queries {
			if _, done := decided[id]; done {
				continue
			}
			if n == nil {
				n = schedule(g.Clause)
			}
			decided[id] = n
		}
	}
	return decided
}

// collapse folds the trailing run of single-block mismatch entries of
// the pending span into the largest skip of ads that covers only them
// (Alg. 5), through core's skip choice (BlockADS.PlanSkip). A skip
// whose blocks share their clause cites it, and under acc2 its proof
// is the ProofSum of theirs; any other skip cites the first clause of
// the query its span misses, proved afresh on run; s stays in
// unproved until that proof lands.
func (e *Engine) collapse(s *subState, ads *core.BlockADS, view core.ChainView, run *proofs.Run, unproved map[int]bool) error {
	start := len(s.pending)
	for start > 0 && s.pending[start-1].Skip == nil && s.pending[start-1].Tree.Kind == core.KindMismatch {
		start--
	}
	if start == len(s.pending) {
		return nil
	}
	tail := s.pending[start:]
	// shared returns the clause that every block of the tail from
	// height from on cites, or nil.
	shared := func(from int) core.Clause {
		blocks := tail[from-tail[0].Height:]
		for _, b := range blocks[1:] {
			if !b.Tree.Clause.Equal(blocks[0].Tree.Clause) {
				return nil
			}
		}
		return blocks[0].Tree.Clause
	}
	skip, w, err := ads.PlanSkip(view, e.acc, tail[0].Height, func(from int, w multiset.Multiset) (core.Clause, bool) {
		if cl := shared(from); cl != nil && !cl.Matches(w) {
			return cl, true
		}
		return s.cnf.FindMismatch(w)
	})
	if err != nil || skip == nil {
		return err
	}
	from := ads.Height - skip.Distance + 1
	if e.acc.SupportsAgg() && shared(from).Equal(skip.Clause) {
		// Aggregate the block proofs the run computed (the ProofSum
		// path of §7.2) instead of proving from scratch.
		var pfs []accumulator.Proof
		for _, b := range tail[from-tail[0].Height:] {
			pfs = append(pfs, *b.Tree.Proof)
		}
		pf, err := e.acc.ProofSum(pfs...)
		if err != nil {
			return fmt.Errorf("subscribe: skip proof sum: %w", err)
		}
		skip.Proof = &pf
	} else {
		unproved[s.id] = true
		run.Add(w, skip.Clause.Key(), skip.Clause.Multiset(), func(pf accumulator.Proof) {
			skip.Proof = &pf
			delete(unproved, s.id)
		})
	}
	s.pending = append(s.pending[:len(s.pending)-skip.Distance], core.BlockVO{Height: ads.Height, Skip: skip})
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
// (ties: smaller clause first, then by key).
func sortGroupsByFanout(groups []clauseGroup) {
	slices.SortStableFunc(groups, compareGroups)
}

func compareGroups(a, b clauseGroup) int {
	return cmp.Or(
		cmp.Compare(len(b.Queries), len(a.Queries)),
		cmp.Compare(len(a.Clause), len(b.Clause)),
		strings.Compare(a.Clause.Key(), b.Clause.Key()),
	)
}

func sortedStateIDs(m map[int]*subState) []int {
	return slices.Sorted(maps.Keys(m))
}
