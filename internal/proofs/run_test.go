package proofs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/multiset"
)

// countingAcc wraps an accumulator and records how many ProveDisjoint
// calls run at once — the observable the engine's bound must cap.
type countingAcc struct {
	accumulator.Accumulator
	inFlight atomic.Int64
	max      atomic.Int64
}

func (c *countingAcc) ProveDisjoint(x1, x2 multiset.Multiset) (accumulator.Proof, error) {
	n := c.inFlight.Add(1)
	for {
		m := c.max.Load()
		if n <= m || c.max.CompareAndSwap(m, n) {
			break
		}
	}
	defer c.inFlight.Add(-1)
	return c.Accumulator.ProveDisjoint(x1, x2)
}

// TestConcurrentRunsRespectEngineBound waits several runs on one engine
// at once and checks that proofs in flight never exceed the engine's
// bound, the GOMAXPROCS it was built at: stacking runs queues them
// rather than oversubscribing the host, even after GOMAXPROCS rises.
func TestConcurrentRunsRespectEngineBound(t *testing.T) {
	const runs, perRun = 3, 4
	bound := runtime.GOMAXPROCS(0)
	acc := &countingAcc{Accumulator: testAcc(t)}
	e := New(acc, Options{CacheSize: -1})
	// Let the runs split wider and draw more helpers than the bound.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(bound + 2))

	var wg sync.WaitGroup
	for r := range runs {
		run := e.NewRun()
		for i := range perRun {
			w := multiset.New(fmt.Sprintf("elt%d-%d", r, i)) // distinct pairs: no single-flight dedupe
			run.Add(w, key("van"), multiset.New("van"), func(accumulator.Proof) {})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run.WaitCtx(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if got := acc.max.Load(); got > int64(bound) {
		t.Fatalf("observed %d concurrent proofs on one engine, bound is %d", got, bound)
	}
	if st := e.Stats(); st.Proofs != runs*perRun {
		t.Fatalf("%d proofs computed, want %d", st.Proofs, runs*perRun)
	}
}

var errNoMeeting = errors.New("the other proof never started")

// meetingAcc makes its first two proofs wait for each other: each
// returns errNoMeeting unless both have started within a bound.
type meetingAcc struct {
	accumulator.Accumulator
	started atomic.Int32
	both    chan struct{}
}

func (m *meetingAcc) ProveDisjoint(x1, x2 multiset.Multiset) (accumulator.Proof, error) {
	if m.started.Add(1) == 2 {
		close(m.both)
	}
	select {
	case <-m.both:
	case <-time.After(5 * time.Second):
		return accumulator.Proof{}, errNoMeeting
	}
	return m.Accumulator.ProveDisjoint(x1, x2)
}

// TestDefaultEngineProvesInParallel pins that an engine built with no
// options, as a node builds its own, proves a run on GOMAXPROCS
// goroutines: at GOMAXPROCS 2 a run's two proofs are in flight at once.
func TestDefaultEngineProvesInParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	acc := &meetingAcc{Accumulator: testAcc(t), both: make(chan struct{})}
	run := New(acc, Options{}).NewRun()
	for i := range 2 {
		run.Add(multiset.New(fmt.Sprintf("elt%d", i)), key("van"), multiset.New("van"), func(accumulator.Proof) {})
	}
	if err := run.WaitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRunTruncateWithdrawsTasks checks that tasks dropped by Truncate
// are neither computed nor assigned, while the ones kept still are.
func TestRunTruncateWithdrawsTasks(t *testing.T) {
	e := New(testAcc(t), Options{})
	run := e.NewRun()
	assigned := 0
	for i := range 5 {
		run.Add(multiset.New(fmt.Sprintf("elt%d", i)), key("van"), multiset.New("van"), func(accumulator.Proof) { assigned++ })
	}
	run.Truncate(2)
	if run.Len() != 2 {
		t.Fatalf("run length %d after Truncate(2)", run.Len())
	}
	if err := run.WaitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if assigned != 2 {
		t.Fatalf("%d tasks assigned, want 2", assigned)
	}
	if st := e.Stats(); st.Proofs != 2 {
		t.Fatalf("%d proofs computed, want 2", st.Proofs)
	}
}
