package subscribe

import (
	"fmt"
	"sync"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
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
	// MaxDepth caps IP-tree splitting; zero means 8.
	MaxDepth int
	// Proofs is the shared proof engine all disjointness proofs route
	// through; pass the deployment-wide engine so subscriptions reuse
	// proofs cached by time-window queries (and vice versa). Left nil,
	// the engine creates a private one with default options.
	Proofs *proofs.Engine
}

// Effective values of the zero-valued Options fields. Exported so
// callers that compare options (e.g. the facade's conflict check) use
// the same defaults as the engine itself.
const (
	// DefaultLazyThreshold is the pending-block bound of §7.2.
	DefaultLazyThreshold = 64
	// DefaultMaxDepth caps IP-tree splitting.
	DefaultMaxDepth = 8
	// DefaultDims is the numeric dimensionality.
	DefaultDims = 1
)

func (o Options) withDefaults() Options {
	if o.LazyThreshold <= 0 {
		o.LazyThreshold = DefaultLazyThreshold
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = DefaultMaxDepth
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

// NewEngine creates a subscription engine.
func NewEngine(acc accumulator.Accumulator, opts Options) *Engine {
	opts = opts.withDefaults()
	eng := opts.Proofs
	if eng == nil {
		eng = proofs.New(acc, proofs.Options{})
	}
	return &Engine{Acc: acc, Opts: opts, proofs: eng, subs: map[int]*subState{}}
}

// ProofStats returns a snapshot of the proof-engine counters.
func (e *Engine) ProofStats() proofs.Stats { return e.proofs.Stats() }

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
		t, err := NewIPTree(e.Opts.Dims, e.Opts.Width, e.Opts.MaxDepth, qs)
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
func (e *Engine) ProcessBlock(ads *core.BlockADS, view core.ChainView) ([]Publication, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.subs) == 0 {
		return nil, nil
	}

	// Decide per query: which clause (if any) the whole block misses.
	// With the IP-tree, each distinct clause is tested once and its
	// proof computed once; without it, per query.
	type decision struct {
		mismatch bool
		clause   core.Clause
		proof    accumulator.Proof
	}
	decisions := make(map[int]*decision, len(e.subs))

	if tree, err := e.tree(); err != nil {
		return nil, err
	} else if tree != nil {
		groups, err := tree.ClauseGroups()
		if err != nil {
			return nil, err
		}
		// Widely shared clauses first: each computed proof should
		// decide as many queries as possible, so the number of proofs
		// never exceeds the number of queries (the nip cost) and drops
		// well below it when queries share conditions — the Fig. 12
		// effect.
		sortGroupsByFanout(groups)
		for _, g := range groups {
			// Compute a proof only if some still-undecided query needs
			// this clause.
			needed := false
			for _, id := range g.Queries {
				if _, done := decisions[id]; !done {
					if _, ok := e.subs[id]; ok {
						needed = true
						break
					}
				}
			}
			if !needed || g.Clause.Matches(ads.BlockW) {
				continue
			}
			pf, err := e.proofs.Prove(ads.BlockW, g.Clause.Key(), g.Clause.Multiset())
			if err != nil {
				return nil, fmt.Errorf("subscribe: shared mismatch proof: %w", err)
			}
			for _, id := range g.Queries {
				if _, done := decisions[id]; done {
					continue
				}
				if _, ok := e.subs[id]; !ok {
					continue
				}
				decisions[id] = &decision{mismatch: true, clause: g.Clause, proof: pf}
			}
		}
	} else {
		// Without the IP-tree every query decides independently;
		// schedule the per-query block-mismatch proofs as one deferred
		// run so they execute on the worker pool, with the engine cache
		// deduplicating queries that happen to share a clause.
		run := e.proofs.NewRun()
		for id, s := range e.subs {
			if clause, bad := s.cnf.FindMismatch(ads.BlockW); bad {
				d := &decision{mismatch: true, clause: clause}
				decisions[id] = d
				run.Add(ads.BlockW, clause.Key(), clause.Multiset(),
					func(pf accumulator.Proof) { d.proof = pf })
			}
		}
		if err := run.Wait(); err != nil {
			return nil, fmt.Errorf("subscribe: mismatch proof: %w", err)
		}
	}

	sp := &core.SP{Acc: e.Acc, View: view, Engine: e.proofs}
	var pubs []Publication
	for _, id := range sortedStateIDs(e.subs) {
		s := e.subs[id]
		d := decisions[id]
		if d != nil && d.mismatch {
			node := core.RootMismatchVO(ads, d.clause, d.proof)
			if node == nil {
				// Non-indexed block: prove leaf by leaf via traversal.
				var err error
				node, err = sp.BlockTreeVO(ads, s.cnf)
				if err != nil {
					return nil, err
				}
			}
			bvo := core.BlockVO{Height: ads.Height, Tree: node}
			if !e.Opts.Lazy {
				pubs = append(pubs, Publication{
					QueryID: id, From: ads.Height, To: ads.Height,
					VO: &core.VO{Blocks: []core.BlockVO{bvo}},
				})
				continue
			}
			e.push(s, ads, bvo, view)
			if len(s.pending) >= e.Opts.LazyThreshold {
				if p := e.flushLocked(s); p != nil {
					pubs = append(pubs, *p)
				}
			}
			continue
		}

		// The block (possibly) contains results: full traversal.
		node, err := sp.BlockTreeVO(ads, s.cnf)
		if err != nil {
			return nil, err
		}
		bvo := core.BlockVO{Height: ads.Height, Tree: node}
		if e.Opts.Lazy && len(s.pending) > 0 {
			s.pending = append(s.pending, bvo)
			if p := e.flushLocked(s); p != nil {
				pubs = append(pubs, *p)
			}
			continue
		}
		pubs = append(pubs, Publication{
			QueryID: id, From: ads.Height, To: ads.Height,
			VO: &core.VO{Blocks: []core.BlockVO{bvo}},
		})
	}
	return pubs, nil
}

// push appends a mismatch block VO to the pending stack, collapsing
// trailing same-coverage entries into a skip when the block's skip list
// aligns (Alg. 5).
func (e *Engine) push(s *subState, ads *core.BlockADS, bvo core.BlockVO, view core.ChainView) {
	if len(s.pending) == 0 {
		s.pendingFrom = bvo.Height
	}
	s.pending = append(s.pending, bvo)

	// Find the largest skip whose distance d matches the trailing d
	// single-block mismatch entries ending at this height.
	for i := len(ads.Skips) - 1; i >= 0; i-- {
		entry := &ads.Skips[i]
		d := entry.Distance
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
			if b.Tree.Proof != nil {
				pfs = append(pfs, *b.Tree.Proof)
			}
		}
		if !ok || clause == nil {
			continue
		}
		// The skip's aggregated multiset must miss the clause we will
		// cite; if per-block clauses diverged, fall back to the first
		// clause that the aggregate misses.
		if !sameClause || clause.Matches(entry.W) {
			cl, bad := s.cnf.FindMismatch(entry.W)
			if !bad {
				continue
			}
			clause = cl
			sameClause = false
		}
		var pf accumulator.Proof
		var err error
		if sameClause && e.Acc.SupportsAgg() && len(pfs) == d {
			// Aggregate the already-computed per-block proofs (the
			// ProofSum path of §7.2) instead of proving from scratch.
			pf, err = e.Acc.ProofSum(pfs...)
		} else {
			pf, err = e.proofs.Prove(entry.W, clause.Key(), clause.Multiset())
		}
		if err != nil {
			continue
		}
		siblings := make(map[int]coreDigest, len(ads.Skips)-1)
		for j := range ads.Skips {
			if j == i {
				continue
			}
			siblings[ads.Skips[j].Distance] = core.SkipEntryHash(&ads.Skips[j], e.Acc)
		}
		skip := &core.SkipVO{
			Distance: d,
			Clause:   clause,
			Proof:    pf,
			Digest:   entry.Digest,
			PrevHash: entry.PrevHash,
			Siblings: siblings,
		}
		s.pending = s.pending[:len(s.pending)-d]
		s.pending = append(s.pending, core.BlockVO{Height: ads.Height, Skip: skip})
		break
	}
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

type coreDigest = chain.Digest

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
