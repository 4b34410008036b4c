package adstore

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// pagedOver returns a Paged source decoding "v<i>" strings from a
// fake record store, with a decode counter independent of Stats.
func pagedOver(maxEntries int, decoded *atomic.Int64) *Paged[string] {
	return NewPaged(PagedConfig[string]{
		Read: func(i int) ([]byte, error) {
			if i < 0 || i >= 100 {
				return nil, errors.New("out of range")
			}
			return []byte(fmt.Sprintf("v%d", i)), nil
		},
		Decode: func(i int, data []byte) (string, error) {
			if decoded != nil {
				decoded.Add(1)
			}
			return string(data), nil
		},
		Size:       func(v string) int { return len(v) },
		MaxEntries: maxEntries,
	})
}

func TestPagedHitMissEvict(t *testing.T) {
	p := pagedOver(2, nil)
	for _, i := range []int{0, 1, 2} { // 0 evicted when 2 arrives
		if v, err := p.At(i); err != nil || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("At(%d) = %q, %v", i, v, err)
		}
	}
	if v, err := p.At(2); err != nil || v != "v2" { // hit
		t.Fatalf("At(2) = %q, %v", v, err)
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 3 || s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if _, err := p.At(0); err != nil { // re-pages in
		t.Fatal(err)
	}
	if s := p.Stats(); s.Misses != 4 {
		t.Fatalf("misses = %d, want 4", s.Misses)
	}
}

func TestPagedSingleFlight(t *testing.T) {
	var decoded atomic.Int64
	release := make(chan struct{})
	p := NewPaged(PagedConfig[string]{
		Read: func(i int) ([]byte, error) { return []byte("x"), nil },
		Decode: func(i int, data []byte) (string, error) {
			decoded.Add(1)
			<-release // hold every waiter on one in-flight decode
			return string(data), nil
		},
	})
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := p.At(7); err != nil || v != "x" {
				t.Errorf("At = %q, %v", v, err)
			}
		}()
	}
	for p.Stats().Misses < workers { // all workers reached the miss path
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := decoded.Load(); n != 1 {
		t.Fatalf("decoded %d times, want 1", n)
	}
	if s := p.Stats(); s.Decodes != 1 || s.Misses != workers {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPagedInvalidateFrom(t *testing.T) {
	p := pagedOver(0, nil)
	p.At(0)
	p.At(1)
	p.At(2)
	p.InvalidateFrom(1)
	if s := p.Stats(); s.Entries != 1 {
		t.Fatalf("entries = %d, want 1", s.Entries)
	}
	if v, err := p.At(1); err != nil || v != "v1" { // re-pages in
		t.Fatalf("At(1) = %q, %v", v, err)
	}
}

func TestPagedStaleLoadNotCached(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	p := NewPaged(PagedConfig[string]{
		Read: func(i int) ([]byte, error) { return []byte("stale"), nil },
		Decode: func(i int, data []byte) (string, error) {
			close(started)
			<-release
			return string(data), nil
		},
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, err := p.At(5); err != nil || v != "stale" {
			t.Errorf("At = %q, %v", v, err) // waiter still gets its value
		}
	}()
	<-started
	p.InvalidateFrom(0) // truncate races with the in-flight load
	close(release)
	<-done
	if s := p.Stats(); s.Entries != 0 {
		t.Fatalf("stale load cached: %+v", s)
	}
}

func TestPagedReadErrorPropagates(t *testing.T) {
	sentinel := errors.New("disk gone")
	p := NewPaged(PagedConfig[string]{
		Read:   func(i int) ([]byte, error) { return nil, sentinel },
		Decode: func(i int, data []byte) (string, error) { return string(data), nil },
	})
	if _, err := p.At(0); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if s := p.Stats(); s.Entries != 0 || s.Decodes != 0 {
		t.Fatalf("stats = %+v", s)
	}
}
