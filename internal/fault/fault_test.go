package fault

import (
	"errors"
	"testing"
	"time"

	"github.com/vchain-go/vchain/internal/storage"
)

func TestScheduleWindows(t *testing.T) {
	s := NewSchedule(
		Rule{Op: OpAppend, From: 2, To: 3, Fail: true},
		Rule{Op: OpRead, From: 1, Delay: time.Millisecond},
	)
	b := WrapBackend(storage.NewMemory(), s)

	if err := b.Append([]byte("a")); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	for i := 2; i <= 3; i++ {
		if err := b.Append([]byte("x")); !errors.Is(err, ErrInjected) {
			t.Fatalf("append %d: want injected error, got %v", i, err)
		}
	}
	if err := b.Append([]byte("b")); err != nil {
		t.Fatalf("append 4: %v", err)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (failed appends must not land)", b.Len())
	}
	// Read 1 is delay-only: it must still succeed.
	if _, err := b.Read(0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if got := s.Injected()[OpAppend]; got != 2 {
		t.Fatalf("injected appends = %d, want 2", got)
	}
}

func TestScheduleHealAndRearm(t *testing.T) {
	s := NewSchedule()
	b := WrapBackend(storage.NewMemory(), s)
	s.NextFailures(OpAppend, 2)
	for i := 0; i < 2; i++ {
		if err := b.Append([]byte("x")); !errors.Is(err, ErrInjected) {
			t.Fatalf("want injected error, got %v", err)
		}
	}
	if err := b.Append([]byte("ok")); err != nil {
		t.Fatalf("append after rules expire: %v", err)
	}
	s.NextFailures(OpAppend, 100)
	if err := b.Append([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatal("re-armed schedule must fail")
	}
	s.Heal()
	if err := b.Append([]byte("ok")); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
}

func TestSeededDeterminism(t *testing.T) {
	probe := func() []int {
		s := Seeded(42, 20, 3, OpAppend)
		b := WrapBackend(storage.NewMemory(), s)
		var failed []int
		for i := 1; i <= 20; i++ {
			if err := b.Append([]byte("x")); err != nil {
				failed = append(failed, i)
			}
		}
		return failed
	}
	a, c := probe(), probe()
	if len(a) == 0 {
		t.Fatal("seeded schedule injected nothing")
	}
	if len(a) != len(c) {
		t.Fatalf("runs differ: %v vs %v", a, c)
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("runs differ: %v vs %v", a, c)
		}
	}
}

// TestLogFsyncFailure drives a real storage.Log through an injected
// fsync failure: the append errors, the record is not indexed, and a
// reopen sees a consistent log (the unsynced bytes are either fully
// valid — fsync failed after the write landed — or truncated away).
func TestLogFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	s := NewSchedule()
	opts := storage.Options{Hooks: LogHooks(s)}

	log, err := storage.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := log.Append([]byte{byte(i)}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	s.NextFailures(OpSync, 1)
	if err := log.Append([]byte{0xFF}); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected fsync failure, got %v", err)
	}
	if log.Len() != 3 {
		t.Fatalf("Len after failed fsync = %d, want 3", log.Len())
	}
	// The log stays usable once the disk recovers.
	s.Heal()
	if err := log.Append([]byte{4}); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// The unsynced 0xFF frame was valid on disk (only its sync was
	// faulted), so reopen may index it before the healed append; what
	// matters is that every indexed record reads back intact.
	rep := re.Report()
	if rep.Records != re.Len() {
		t.Fatalf("report records %d != len %d", rep.Records, re.Len())
	}
	for i := 0; i < re.Len(); i++ {
		if _, err := re.Read(i); err != nil {
			t.Fatalf("read %d after reopen: %v", i, err)
		}
	}
}

// TestLogTornAppend tears a frame write: the torn frame's prefix lands
// after three good records. Reopen must cut exactly the torn prefix
// and report it.
func TestLogTornAppend(t *testing.T) {
	dir := t.TempDir()
	s := NewSchedule()
	rec := make([]byte, 64)
	opts := storage.Options{Hooks: LogHooks(s)}

	log, err := storage.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec[0] = byte(i)
		if err := log.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// Tear the next frame 5 bytes in: the file gets a 5-byte prefix of
	// a frame.
	s.AddRules(Rule{Op: OpWrite, From: 4, TearAt: 5})
	rec[0] = 0xFF
	if err := log.Append(rec); !errors.Is(err, ErrInjected) {
		t.Fatalf("want torn write error, got %v", err)
	}
	if log.Len() != 3 {
		t.Fatalf("Len after torn append = %d, want 3", log.Len())
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 3 {
		t.Fatalf("reopened Len = %d, want 3", re.Len())
	}
	rep := re.Report()
	if !rep.Truncated {
		t.Fatal("recovery did not report the torn tail")
	}
	if rep.DroppedBytes != 5 {
		t.Fatalf("DroppedBytes = %d, want the 5-byte torn prefix", rep.DroppedBytes)
	}
	for i := 0; i < 3; i++ {
		data, err := re.Read(i)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if data[0] != byte(i) {
			t.Fatalf("record %d corrupted after recovery", i)
		}
	}
}
