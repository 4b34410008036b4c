package proofs

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

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
// bound of max(Workers, GOMAXPROCS): stacking runs queues them rather
// than oversubscribing the host.
func TestConcurrentRunsRespectEngineBound(t *testing.T) {
	const workers, runs, perRun = 2, 3, 4
	acc := &countingAcc{Accumulator: testAcc(t)}
	// The bound is fixed when the engine is built: pin it to Workers,
	// then let the runs execute on every core.
	prev := runtime.GOMAXPROCS(1)
	e := New(acc, Options{Workers: workers, CacheSize: -1})
	runtime.GOMAXPROCS(prev)

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

	if got := acc.max.Load(); got > workers {
		t.Fatalf("observed %d concurrent proofs on one engine, bound is %d", got, workers)
	}
	if st := e.Stats(); st.Proofs != runs*perRun {
		t.Fatalf("%d proofs computed, want %d", st.Proofs, runs*perRun)
	}
}

// TestRunTruncateWithdrawsTasks checks that tasks dropped by Truncate
// are neither computed nor assigned, while the ones kept still are.
func TestRunTruncateWithdrawsTasks(t *testing.T) {
	e := New(testAcc(t), Options{Workers: 2})
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
