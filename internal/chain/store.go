package chain

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNotFound is returned when a height is absent.
var ErrNotFound = errors.New("chain: not found")

// Store is the full-node chain state: all blocks, indexed by height.
// It validates linkage, proof-of-work, and timestamp
// monotonicity on append. It is safe for concurrent use.
type Store struct {
	mu         sync.RWMutex
	blocks     []*Block
	difficulty Difficulty
}

// NewStore creates an empty full-node store enforcing the given
// difficulty on appended blocks.
func NewStore(d Difficulty) *Store {
	return &Store{difficulty: d}
}

// Difficulty returns the enforced proof-of-work difficulty.
func (s *Store) Difficulty() Difficulty { return s.difficulty }

// Height returns the number of blocks (0 when empty).
func (s *Store) Height() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blocks)
}

// Append validates and appends a block.
func (s *Store) Append(b *Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.validateNext(b); err != nil {
		return err
	}
	s.blocks = append(s.blocks, b)
	return nil
}

// validateNext checks b as the next block; callers hold s.mu.
func (s *Store) validateNext(b *Block) error {
	h := b.Header
	if int(h.Height) != len(s.blocks) {
		return fmt.Errorf("chain: height %d, want %d", h.Height, len(s.blocks))
	}
	if len(s.blocks) == 0 {
		if h.PrevHash != (Digest{}) {
			return errors.New("chain: genesis must have zero PrevHash")
		}
	} else {
		prev := s.blocks[len(s.blocks)-1].Header
		if h.PrevHash != prev.Hash() {
			return errors.New("chain: broken hash linkage")
		}
		if h.TS < prev.TS {
			return errors.New("chain: timestamp regression")
		}
	}
	if !s.difficulty.Meets(h.Hash()) {
		return errors.New("chain: proof-of-work does not meet difficulty")
	}
	return nil
}

// BlockAt returns the block at a height.
func (s *Store) BlockAt(height int) (*Block, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if height < 0 || height >= len(s.blocks) {
		return nil, fmt.Errorf("%w: height %d", ErrNotFound, height)
	}
	return s.blocks[height], nil
}

// Tip returns the latest block, or nil when empty.
func (s *Store) Tip() *Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.blocks) == 0 {
		return nil
	}
	return s.blocks[len(s.blocks)-1]
}

// Headers returns a copy of all headers in height order — what a light
// node syncs.
func (s *Store) Headers() []Header {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Header, len(s.blocks))
	for i, b := range s.blocks {
		out[i] = b.Header
	}
	return out
}

// LightStore is the query user's view: headers only (§3, light node).
// It re-validates linkage and proof-of-work on sync, so a malicious SP
// cannot feed it a divergent chain without breaking PoW.
type LightStore struct {
	mu         sync.RWMutex
	headers    []Header
	difficulty Difficulty
}

// NewLightStore creates an empty light-node store.
func NewLightStore(d Difficulty) *LightStore {
	return &LightStore{difficulty: d}
}

// Sync appends headers beyond the current height, validating each.
func (l *LightStore) Sync(headers []Header) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, h := range headers {
		if int(h.Height) < len(l.headers) {
			continue // already have it
		}
		if int(h.Height) != len(l.headers) {
			return fmt.Errorf("chain: header gap at %d", h.Height)
		}
		if len(l.headers) > 0 {
			prev := l.headers[len(l.headers)-1]
			if h.PrevHash != prev.Hash() {
				return errors.New("chain: light sync linkage broken")
			}
		} else if h.PrevHash != (Digest{}) {
			return errors.New("chain: light sync genesis PrevHash non-zero")
		}
		if !l.difficulty.Meets(h.Hash()) {
			return errors.New("chain: light sync PoW invalid")
		}
		l.headers = append(l.headers, h)
	}
	return nil
}

// Height returns the number of synced headers.
func (l *LightStore) Height() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.headers)
}

// HeaderAt returns the header at a height.
func (l *LightStore) HeaderAt(height int) (Header, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if height < 0 || height >= len(l.headers) {
		return Header{}, fmt.Errorf("%w: header %d", ErrNotFound, height)
	}
	return l.headers[height], nil
}

// WindowByTime maps a timestamp window [ts, te] to the inclusive block
// height window whose blocks fall inside it, using the monotonic header
// timestamps (the paper's time-window queries are specified over
// timestamps; light nodes resolve them against their own headers, not
// the SP's claims). ok is false when no block falls in the window.
func (l *LightStore) WindowByTime(ts, te int64) (start, end int, ok bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return windowByTime(len(l.headers), func(i int) int64 { return l.headers[i].TS }, ts, te)
}

// WindowByTime is the full-node counterpart of LightStore.WindowByTime.
// It binary-searches the blocks in place: no per-call header copy on
// the SP hot path.
func (s *Store) WindowByTime(ts, te int64) (start, end int, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return windowByTime(len(s.blocks), func(i int) int64 { return s.blocks[i].Header.TS }, ts, te)
}

// windowByTime binary-searches n monotone timestamps accessed through
// at.
func windowByTime(n int, at func(int) int64, ts, te int64) (int, int, bool) {
	if n == 0 || ts > te {
		return 0, 0, false
	}
	// First height with TS ≥ ts.
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if at(mid) < ts {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := lo
	// Last height with TS ≤ te.
	lo, hi = 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if at(mid) <= te {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	end := lo - 1
	if start > end {
		return 0, 0, false
	}
	return start, end, true
}

// SizeBits reports the total light-node storage in bits (Table 1's
// header-size metric aggregated over the chain).
func (l *LightStore) SizeBits() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	n := 0
	for _, h := range l.headers {
		n += h.SizeBits()
	}
	return n
}
