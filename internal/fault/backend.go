package fault

import (
	"github.com/vchain-go/vchain/internal/storage"
)

// Backend wraps a storage.Backend with fault injection driven by a
// shared Schedule. It deliberately does NOT implement
// storage.Ephemeral, even when the inner backend does: wrapping a
// discarding storage.Null makes commit pipelines exercise their
// persistence path through the wrapper, which is exactly what fault
// tests want.
type Backend struct {
	inner storage.Backend
	sched *Schedule
}

// WrapBackend wraps b with s's storage faults.
func WrapBackend(b storage.Backend, s *Schedule) *Backend {
	return &Backend{inner: b, sched: s}
}

// Len implements storage.Backend. Length queries are never faulted:
// they are how supervisors inspect a sick backend.
func (b *Backend) Len() int { return b.inner.Len() }

// Append implements storage.Backend.
func (b *Backend) Append(data []byte) error {
	if _, err := b.sched.apply(OpAppend); err != nil {
		return err
	}
	return b.inner.Append(data)
}

// Read implements storage.Backend.
func (b *Backend) Read(i int) ([]byte, error) {
	if _, err := b.sched.apply(OpRead); err != nil {
		return nil, err
	}
	return b.inner.Read(i)
}

// Truncate implements storage.Backend.
func (b *Backend) Truncate(n int) error {
	if _, err := b.sched.apply(OpTruncate); err != nil {
		return err
	}
	return b.inner.Truncate(n)
}

// Close implements storage.Backend. Close always passes through: a
// fault wrapper must never leak the file handles and locks beneath it.
func (b *Backend) Close() error { return b.inner.Close() }

// LogHooks bridges the schedule's OpSync/OpWrite rules into
// storage.Options.Hooks, injecting fsync failures and torn frame
// writes inside a storage.Log.
func LogHooks(s *Schedule) *storage.Hooks {
	return &storage.Hooks{
		Sync: func() error {
			_, err := s.apply(OpSync)
			return err
		},
		Write: func(frame []byte) (int, error) {
			r, err := s.apply(OpWrite)
			if err != nil {
				return r.TearAt, err
			}
			return 0, nil
		},
	}
}
