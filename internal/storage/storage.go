// Package storage provides the full node's pluggable block store: an
// ordered, append-only sequence of opaque records, one per committed
// block. The core layer serializes each (Block, BlockADS) pair into one
// record at commit time, so a durable backend persists the chain — and
// the expensive-to-rebuild ADS bodies — incrementally as blocks are
// mined, instead of via whole-chain snapshots.
//
// Two implementations exist:
//
//   - Memory keeps records in RAM (the historical behavior: nothing
//     survives a restart);
//   - Log is one append-only file on disk with per-record CRC
//     framing, fsync-on-commit durability, and crash recovery that
//     truncates to the last valid record.
//
// Backends store bytes, not blocks: they know nothing about chain
// validation, which stays in the core commit path.
package storage

import (
	"errors"
	"fmt"
	"sync"
)

// ErrOutOfRange is returned by Read for an index not in [0, Len()).
var ErrOutOfRange = errors.New("storage: record index out of range")

// ErrCorruptRecord is returned by Read when a record's payload fails
// its CRC32-C. It means bit-rot or tampering, not a transient IO
// failure: retrying the same read cannot succeed.
var ErrCorruptRecord = errors.New("storage: corrupt record")

// Backend is an ordered, append-only store of opaque records. Record i
// holds the chain entry at height i. Implementations must be safe for
// concurrent use, though the core commit path already serializes
// writes.
type Backend interface {
	// Len returns the number of committed records.
	Len() int
	// Append durably commits data as record number Len(). For durable
	// backends the record must survive a process crash once Append
	// returns.
	Append(data []byte) error
	// Read returns record i. The returned slice must not be mutated by
	// the caller.
	Read(i int) ([]byte, error)
	// Truncate discards records n.. so that Len() == n afterwards. It
	// is the rollback half of a commit whose block the chain index
	// rejects, and drops stranded or surplus records at open and slot
	// restart. Truncating beyond Len() is an error.
	Truncate(n int) error
	// Close releases resources. A closed backend rejects further use.
	Close() error
}

// Ephemeral marks backends that retain nothing. The commit pipeline
// skips record serialization entirely for them — an ephemeral node
// pays zero persistence overhead.
type Ephemeral interface {
	Backend
	// EphemeralStore is a marker; it does nothing.
	EphemeralStore()
}

// Null is the no-persistence backend: appends are acknowledged and
// discarded. It backs plain in-memory nodes (core.NewFullNode), which
// keep their own decoded chain state and gain nothing from a second,
// serialized copy.
type Null struct{}

// NewNull returns the no-persistence backend.
func NewNull() Null { return Null{} }

// EphemeralStore implements Ephemeral.
func (Null) EphemeralStore() {}

// Len implements Backend: a Null retains nothing.
func (Null) Len() int { return 0 }

// Append implements Backend by discarding the record.
func (Null) Append([]byte) error { return nil }

// Read implements Backend; nothing is ever retained.
func (Null) Read(i int) ([]byte, error) {
	return nil, fmt.Errorf("%w: %d of 0", ErrOutOfRange, i)
}

// Truncate implements Backend.
func (Null) Truncate(n int) error {
	if n != 0 {
		return fmt.Errorf("%w: truncate to %d of 0", ErrOutOfRange, n)
	}
	return nil
}

// Close implements Backend.
func (Null) Close() error { return nil }

// Memory is the in-RAM backend: it retains every record for the
// process lifetime, so replay, commit rollback and slot restart all
// work uniformly against it — useful for tests and staging flows. A node
// that only needs the legacy "nothing survives" behavior uses Null
// instead and skips record serialization altogether.
type Memory struct {
	mu     sync.RWMutex
	recs   [][]byte
	closed bool
}

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory { return &Memory{} }

// Len implements Backend.
func (m *Memory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.recs)
}

// Append implements Backend.
func (m *Memory) Append(data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("storage: backend closed")
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	m.recs = append(m.recs, cp)
	return nil
}

// Read implements Backend.
func (m *Memory) Read(i int) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if i < 0 || i >= len(m.recs) {
		return nil, fmt.Errorf("%w: %d of %d", ErrOutOfRange, i, len(m.recs))
	}
	return m.recs[i], nil
}

// Truncate implements Backend.
func (m *Memory) Truncate(n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n < 0 || n > len(m.recs) {
		return fmt.Errorf("%w: truncate to %d of %d", ErrOutOfRange, n, len(m.recs))
	}
	m.recs = m.recs[:n]
	return nil
}

// Close implements Backend.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
