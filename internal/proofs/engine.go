// Package proofs is the shared concurrent disjointness-proof engine.
//
// Disjointness proofs (accumulator.ProveDisjoint) dominate SP CPU in
// vChain — the paper's SP runs 24 hyper-threads on them (§8) — and the
// same (multiset, clause) pair is proved again and again across
// repeated time-window queries, across the subscriptions sharing a
// block, and across the blocks of a lazy span. The Engine centralizes
// that cost behind one reusable component:
//
//   - deferred proof tasks scheduled with assign callbacks (Run) and
//     fanned out with par.For, so VO construction can stay
//     single-threaded while proof computation runs in parallel. A Run
//     is the only entry point: callers plan (Add), then prove
//     (WaitCtx);
//   - an LRU memoization cache keyed by a hash of (multiset digest,
//     clause key) and holding each proof's canonical bytes, with
//     single-flight deduplication, so concurrent and repeated requests
//     for the same proof compute it once;
//   - same-clause aggregation (Aggregator) for aggregating
//     accumulators, powering online batch verification (§6.3);
//   - a Stats snapshot (proofs computed, cache hits/misses,
//     aggregation groups) for CLIs and benchmarks.
//
// One Engine is shared by the time-window SP paths (one run per query)
// and the subscription engine (one run per block, plus one for a lazy
// span's fresh skip proofs); it is safe for concurrent use.
package proofs

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"runtime"
	"sync"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/multiset"
	"github.com/vchain-go/vchain/internal/par"
)

// DefaultCacheSize is the proof-cache capacity when Options.CacheSize
// is zero. An entry is a 32-byte key and the proof's ProofBytes (one
// point under acc2, two under acc1: at most a few hundred bytes at the
// default preset), so the default costs about a megabyte at most.
const DefaultCacheSize = 4096

// Options configure an Engine.
type Options struct {
	// Deprecated: Workers is ignored. GOMAXPROCS alone bounds the
	// goroutines a run proves on; the field stays so that the benchmark
	// harness, which sets it, keeps compiling.
	Workers int
	// CacheSize bounds the LRU proof cache: 0 means DefaultCacheSize,
	// negative disables caching entirely.
	CacheSize int
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	// Proofs counts disjointness proofs actually computed (cache
	// misses that reached the accumulator, successful or not).
	Proofs uint64
	// CacheHits counts requests answered from the cache or joined onto
	// an in-flight computation of the same proof.
	CacheHits uint64
	// CacheMisses counts requests that had to compute.
	CacheMisses uint64
	// Evictions counts cache entries dropped by the LRU bound.
	Evictions uint64
	// AggGroups counts same-clause aggregation groups finalized.
	AggGroups uint64
	// Errors counts failed proof computations (e.g. non-disjoint or
	// over-capacity multisets).
	Errors uint64
}

// HitRate returns CacheHits / (CacheHits + CacheMisses), or 0 when no
// requests have been made.
func (s Stats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Engine computes, caches, and aggregates disjointness proofs on
// behalf of every proof consumer of one deployment.
type Engine struct {
	acc       accumulator.Accumulator
	cacheSize int

	// sem bounds proof computations in flight across all concurrent
	// runs using this engine, so stacking runs cannot oversubscribe the
	// host. Its capacity is GOMAXPROCS when the engine is built.
	sem chan struct{}

	mu       sync.Mutex
	lru      *list.List // of *cacheEntry, most recent first
	items    map[cacheKey]*list.Element
	inflight map[cacheKey]*flight
	stats    Stats
}

// cacheKey identifies one memoized proof: SHA-256 over the digest of
// the first multiset and the caller's length-prefixed clause key. The
// clause key must uniquely determine the clause's multiset
// (core.Clause.Key does).
type cacheKey [sha256.Size]byte

func newCacheKey(w multiset.Multiset, clauseKey string) cacheKey {
	d := w.Digest()
	h := sha256.New()
	h.Write(d[:])
	h.Write(binary.BigEndian.AppendUint64(nil, uint64(len(clauseKey))))
	io.WriteString(h, clauseKey)
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// cacheEntry is one memoized proof in its canonical bytes (ProofBytes),
// which are a fraction of the in-memory accumulator.Proof: under acc2
// the second point is always the identity.
type cacheEntry struct {
	key cacheKey
	pf  []byte
}

// flight is an in-progress computation other requesters can join.
type flight struct {
	key  cacheKey
	done chan struct{}
	pf   accumulator.Proof
	err  error
}

// New creates an engine over the given accumulator.
func New(acc accumulator.Accumulator, opts Options) *Engine {
	size := opts.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	return &Engine{
		acc:       acc,
		cacheSize: size,
		sem:       make(chan struct{}, runtime.GOMAXPROCS(0)),
		lru:       list.New(),
		items:     map[cacheKey]*list.Element{},
		inflight:  map[cacheKey]*flight{},
	}
}

// Acc returns the engine's accumulator.
func (e *Engine) Acc() accumulator.Accumulator { return e.acc }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// lookup starts a request for a proof that w and the clause's
// multiset are disjoint. It serves the request from the cache when an
// equal pair was proved before (its entry), joins an in-flight
// computation of the same pair (f, which the caller waits on), or
// registers the caller's own flight (f and own), which the caller must
// compute and then finish. clauseKey must uniquely determine the
// clause's multiset. With caching disabled every request is the
// caller's own, with no flight to register.
func (e *Engine) lookup(w multiset.Multiset, clauseKey string) (hit *cacheEntry, f *flight, own bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cacheSize < 0 {
		e.stats.CacheMisses++
		return nil, nil, true
	}
	key := newCacheKey(w, clauseKey)
	if el, ok := e.items[key]; ok {
		e.lru.MoveToFront(el)
		e.stats.CacheHits++
		return el.Value.(*cacheEntry), nil, false
	}
	if f, ok := e.inflight[key]; ok {
		e.stats.CacheHits++
		return nil, f, false
	}
	f = &flight{key: key, done: make(chan struct{})}
	e.inflight[key] = f
	e.stats.CacheMisses++
	return nil, f, true
}

// finish publishes the result of an own flight: a proof enters the
// cache, and every request joined onto the flight is released.
func (e *Engine) finish(f *flight, pf accumulator.Proof, err error) {
	if f == nil {
		return
	}
	f.pf, f.err = pf, err
	var b []byte
	if err == nil {
		b = e.acc.ProofBytes(pf)
	}
	e.mu.Lock()
	delete(e.inflight, f.key)
	if err == nil {
		e.items[f.key] = e.lru.PushFront(&cacheEntry{key: f.key, pf: b})
		for e.lru.Len() > e.cacheSize {
			oldest := e.lru.Back()
			delete(e.items, oldest.Value.(*cacheEntry).key)
			e.lru.Remove(oldest)
			e.stats.Evictions++
		}
	}
	e.mu.Unlock()
	close(f.done)
}

// computeEach runs the accumulator proofs of ts under the concurrency
// bound, all in one accumulator.ProveDisjointEach so that
// Construction 2 sums their key points together, and updates the
// computation counters. A context expiring while queued for the budget
// fails every task without touching the counters, and one expiring
// later fails the tasks an accumulator proving one pair at a time has
// not started; a computation already running is never interrupted (the
// pairing code has no cancellation points).
func (e *Engine) computeEach(ctx context.Context, ts []*task, pfs []accumulator.Proof, errs []error) {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		for i := range ts {
			errs[i] = ctx.Err()
		}
		return
	}
	x1s, x2s := make([]multiset.Multiset, len(ts)), make([]multiset.Multiset, len(ts))
	for i, t := range ts {
		x1s[i], x2s[i] = t.w, t.clauseW
	}
	accumulator.ProveDisjointEach(ctx, e.acc, x1s, x2s, pfs, errs)
	<-e.sem
	e.mu.Lock()
	for _, err := range errs {
		if err != nil && err == ctx.Err() {
			continue // not started
		}
		e.stats.Proofs++
		if err != nil {
			e.stats.Errors++
		}
	}
	e.mu.Unlock()
}

// task is one deferred proof with its assign callback.
type task struct {
	w         multiset.Multiset
	clauseKey string
	clauseW   multiset.Multiset
	assign    func(accumulator.Proof)
}

// Run collects deferred proof tasks scheduled during VO construction
// and executes them in parallel at WaitCtx. It is the only way
// to compute a proof. Runs are not safe for concurrent Add; build the
// run single-threaded, then WaitCtx.
type Run struct {
	e     *Engine
	tasks []task
}

// NewRun starts an empty deferred-task run.
func (e *Engine) NewRun() *Run { return &Run{e: e} }

// Add schedules one proof; assign receives the proof when WaitCtx
// executes the run. Assign callbacks run on the waiting goroutine in
// scheduling order, so plain closures over VO fields are safe.
func (r *Run) Add(w multiset.Multiset, clauseKey string, clauseW multiset.Multiset, assign func(accumulator.Proof)) {
	r.tasks = append(r.tasks, task{w: w, clauseKey: clauseKey, clauseW: clauseW, assign: assign})
}

// Len returns the number of scheduled tasks.
func (r *Run) Len() int { return len(r.tasks) }

// Truncate drops every task scheduled after the first n, so a caller
// building one run from several walks can withdraw a walk that failed
// part-way without computing its proofs.
func (r *Run) Truncate(n int) {
	clear(r.tasks[n:])
	r.tasks = r.tasks[:n]
}

// WaitCtx executes all scheduled tasks and invokes each task's assign
// callback with its proof. Tasks the cache or an in-flight computation
// answers are not computed; the rest are split into min(their count,
// GOMAXPROCS) chunks spread by par.For, and each chunk's proofs are
// computed together (accumulator.ProveDisjointEach).
// The first error in scheduling order wins; remaining successful
// assignments still happen. The run is empty afterwards and may be
// reused. Once the context ends, tasks not yet started fail fast with
// the context error instead of computing — a canceled query drains its
// deferred proof backlog in one cheap check per task (or chunk) rather
// than pinning the worker budget until the backlog is exhausted.
// Chunks already inside the pairing code run to completion (and still
// populate the cache).
func (r *Run) WaitCtx(ctx context.Context) error {
	e := r.e
	tasks := r.tasks
	r.tasks = nil
	pfs := make([]accumulator.Proof, len(tasks))
	errs := make([]error, len(tasks))
	flights := make([]*flight, len(tasks))
	var own []int
	for i := range tasks {
		t := &tasks[i]
		if errs[i] = ctx.Err(); errs[i] != nil {
			continue
		}
		hit, f, mine := e.lookup(t.w, t.clauseKey)
		switch {
		case hit != nil:
			pfs[i], errs[i] = e.acc.ProofFromBytes(hit.pf)
		case mine:
			own = append(own, i)
		}
		flights[i] = f
	}

	// New clause elements are numbered in task order before the fan-out,
	// so a parallel run gives the bytes of a serial one.
	for _, i := range own {
		accumulator.Number(e.acc, tasks[i].clauseW)
	}

	// One chunk per goroutine that par.For can run: more would only
	// split the sets of proofs that share their rounds. Every chunk
	// holds at least one task.
	chunks := min(len(own), runtime.GOMAXPROCS(0))
	par.For(chunks, func(c int) {
		idx := own[c*len(own)/chunks : (c+1)*len(own)/chunks]
		ts := make([]*task, len(idx))
		cpfs, cerrs := make([]accumulator.Proof, len(idx)), make([]error, len(idx))
		for k, i := range idx {
			ts[k] = &tasks[i]
		}
		if err := ctx.Err(); err != nil {
			for k := range cerrs {
				cerrs[k] = err
			}
		} else {
			e.computeEach(ctx, ts, cpfs, cerrs)
		}
		for k, i := range idx {
			pfs[i], errs[i] = cpfs[k], cerrs[k]
			e.finish(flights[i], cpfs[k], cerrs[k])
			flights[i] = nil
		}
	})

	// Requests joined onto other computations wait for them.
	for i, f := range flights {
		if f == nil {
			continue
		}
		select {
		case <-f.done:
			pfs[i], errs[i] = f.pf, f.err
		case <-ctx.Done():
			errs[i] = ctx.Err()
		}
	}

	var firstErr error
	for i := range tasks {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		// Serialized on the waiting goroutine: assigns never race.
		tasks[i].assign(pfs[i])
	}
	return firstErr
}

// Aggregator groups same-clause mismatches across one query and proves
// each group once over the multiset sum (§6.3 online batch
// verification). Group indexes are assigned in insertion order.
// Aggregators are not safe for concurrent use.
type Aggregator struct {
	e      *Engine
	index  map[string]int
	groups []aggGroup
}

type aggGroup struct {
	key        string
	w, clauseW multiset.Multiset
}

// NewAggregator starts an empty aggregation.
func (e *Engine) NewAggregator() *Aggregator {
	return &Aggregator{e: e, index: map[string]int{}}
}

// Add registers a mismatching multiset under its clause and returns
// the clause's group index (stable insertion order).
func (a *Aggregator) Add(clauseKey string, w, clauseW multiset.Multiset) int {
	i, ok := a.index[clauseKey]
	if !ok {
		i = len(a.groups)
		a.index[clauseKey] = i
		a.groups = append(a.groups, aggGroup{key: clauseKey, clauseW: clauseW})
	}
	a.groups[i].w = multiset.Sum(a.groups[i].w, w)
	return i
}

// Len returns the number of groups.
func (a *Aggregator) Len() int { return len(a.groups) }

// Finalize schedules one aggregated proof per group on run, in
// group-index order; assign fires with each group's proof during
// Run.WaitCtx.
func (a *Aggregator) Finalize(run *Run, assign func(index int, pf accumulator.Proof)) {
	a.e.mu.Lock()
	a.e.stats.AggGroups += uint64(len(a.groups))
	a.e.mu.Unlock()
	for i, g := range a.groups {
		run.Add(g.w, g.key, g.clauseW, func(pf accumulator.Proof) { assign(i, pf) })
	}
}
