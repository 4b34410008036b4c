// Package adstore owns the decoded authenticated-data-structure set of
// a node: one LRU of decoded values (Paged) per storage slot, keyed by
// block height, over the slot's record index. A miss reads the record
// bytes back, decodes (and cryptographically re-verifies) them, and
// caches the result under an entry budget; concurrent misses for the
// same key decode once (single-flight). Without a budget every value
// stays, which is how a slot over an ephemeral backend keeps its only
// copy of the chain's ADSs.
//
// The package is generic over the decoded value so it does not import
// core (which imports storage, which this package must sit beside);
// core instantiates it as Paged[*BlockADS].
package adstore

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of a Paged source's counters.
type Stats struct {
	// Hits counts At calls served from cache.
	Hits int64
	// Misses counts At calls that had to page in (or join an in-flight
	// page-in).
	Misses int64
	// Decodes counts actual decode executions; with single-flight it
	// can be far below Misses under concurrent load.
	Decodes int64
	// Evictions counts entries dropped to stay within budget.
	Evictions int64
	// Entries is the current number of cached values.
	Entries int
	// Bytes is the current estimated cache footprint.
	Bytes int64
}

// PagedConfig wires a Paged source to its backing record store.
type PagedConfig[T any] struct {
	// Read returns the raw record bytes for key i.
	Read func(i int) ([]byte, error)
	// Decode turns record bytes into the value. Implementations are
	// expected to re-verify any commitments deferred at open time
	// (header roots vs the rebuilt ADS), so a page-in is a verified
	// fetch: corrupt or tampered records error here.
	Decode func(i int, data []byte) (T, error)
	// Size estimates the in-RAM footprint of a decoded value, reported
	// as Stats.Bytes. Nil means "count entries only".
	Size func(v T) int
	// MaxEntries bounds the number of cached values; <= 0 means no
	// bound. The most recent entry is always retained.
	MaxEntries int
}

type pagedEntry[T any] struct {
	key  int
	v    T
	size int64
}

type inflight[T any] struct {
	done chan struct{}
	v    T
	err  error
}

// Paged is an LRU of decoded values over a record store, bounded by
// MaxEntries. A missing key is paged in; errors are page-in failures
// (IO, corruption, failed re-verification), which callers must surface
// rather than treat as absence. The zero value is not usable; call
// NewPaged.
type Paged[T any] struct {
	cfg PagedConfig[T]

	mu      sync.Mutex
	lru     *list.List            // front = most recent; values are *pagedEntry[T]
	entries map[int]*list.Element // key -> lru element
	loading map[int]*inflight[T]  // single-flight page-ins
	bytes   int64
	gen     uint64 // bumped by InvalidateFrom; stale loads don't cache
	hits    int64
	misses  int64
	evicts  int64
	decodes atomic.Int64
}

// NewPaged returns an empty paged source over cfg. Read and Decode
// must be non-nil.
func NewPaged[T any](cfg PagedConfig[T]) *Paged[T] {
	return &Paged[T]{
		cfg:     cfg,
		lru:     list.New(),
		entries: make(map[int]*list.Element),
		loading: make(map[int]*inflight[T]),
	}
}

// At returns the value for key i. A miss pages the record in outside
// the cache lock; concurrent misses for the same key share one decode.
func (p *Paged[T]) At(i int) (T, error) {
	p.mu.Lock()
	if el, ok := p.entries[i]; ok {
		p.lru.MoveToFront(el)
		p.hits++
		v := el.Value.(*pagedEntry[T]).v
		p.mu.Unlock()
		return v, nil
	}
	p.misses++
	if fl, ok := p.loading[i]; ok {
		p.mu.Unlock()
		<-fl.done
		return fl.v, fl.err
	}
	fl := &inflight[T]{done: make(chan struct{})}
	p.loading[i] = fl
	gen := p.gen
	p.mu.Unlock()

	fl.v, fl.err = p.load(i)

	p.mu.Lock()
	delete(p.loading, i)
	if fl.err == nil && gen == p.gen {
		p.insertLocked(i, fl.v)
	}
	p.mu.Unlock()
	close(fl.done)
	return fl.v, fl.err
}

// load reads and decodes record i (no cache interaction).
func (p *Paged[T]) load(i int) (T, error) {
	data, err := p.cfg.Read(i)
	if err != nil {
		var zero T
		return zero, err
	}
	p.decodes.Add(1)
	return p.cfg.Decode(i, data)
}

// Add publishes the value for key i: the commit path inserts the
// freshly built value so the chain tip is always warm.
func (p *Paged[T]) Add(i int, v T) {
	p.mu.Lock()
	p.insertLocked(i, v)
	p.mu.Unlock()
}

// insertLocked caches v under key i and evicts down to budget. Caller
// holds p.mu.
func (p *Paged[T]) insertLocked(i int, v T) {
	if el, ok := p.entries[i]; ok {
		e := el.Value.(*pagedEntry[T])
		p.bytes += p.sizeOf(v) - e.size
		e.v, e.size = v, p.sizeOf(v)
		p.lru.MoveToFront(el)
	} else {
		e := &pagedEntry[T]{key: i, v: v, size: p.sizeOf(v)}
		p.entries[i] = p.lru.PushFront(e)
		p.bytes += e.size
	}
	for p.cfg.MaxEntries > 0 && p.lru.Len() > p.cfg.MaxEntries {
		back := p.lru.Back()
		e := back.Value.(*pagedEntry[T])
		p.lru.Remove(back)
		delete(p.entries, e.key)
		p.bytes -= e.size
		p.evicts++
	}
}

func (p *Paged[T]) sizeOf(v T) int64 {
	if p.cfg.Size == nil {
		return 0
	}
	return int64(p.cfg.Size(v))
}

// InvalidateFrom discards every key >= i: the cache half of a backend
// Truncate, so that heights a rollback discarded are not served from
// cache. In-flight page-ins started before the call still resolve for
// their waiters but are not cached.
func (p *Paged[T]) InvalidateFrom(i int) {
	p.mu.Lock()
	p.gen++
	for el := p.lru.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*pagedEntry[T])
		if e.key >= i {
			p.lru.Remove(el)
			delete(p.entries, e.key)
			p.bytes -= e.size
		}
		el = next
	}
	p.mu.Unlock()
}

// Stats returns a snapshot of the source's counters.
func (p *Paged[T]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Hits:      p.hits,
		Misses:    p.misses,
		Decodes:   p.decodes.Load(),
		Evictions: p.evicts,
		Entries:   p.lru.Len(),
		Bytes:     p.bytes,
	}
}
