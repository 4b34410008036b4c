package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// highWater records the largest value a counter reaches.
type highWater struct{ cur, max atomic.Int64 }

// note raises max to v.
func (h *highWater) note(v int64) {
	for m := h.max.Load(); v > m && !h.max.CompareAndSwap(m, v); m = h.max.Load() {
	}
}

func (h *highWater) enter() { h.note(h.cur.Add(1)) }
func (h *highWater) leave() { h.cur.Add(-1) }

func TestForRunsEveryIndexOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, n := range []int{0, 1, 1000} {
		for _, limit := range []int{-1, 0, 1, 3, n + 5} {
			t.Run(fmt.Sprintf("n=%d/limit=%d", n, limit), func(t *testing.T) {
				counts := make([]atomic.Int32, n)
				For(n, limit, func(i int) { counts[i].Add(1) })
				for i := range counts {
					if c := counts[i].Load(); c != 1 {
						t.Fatalf("index %d ran %d times", i, c)
					}
				}
				if h := helpers.Load(); h != 0 {
					t.Fatalf("%d helpers still counted after For returned", h)
				}
			})
		}
	}
}

// TestForUsesHelpers checks that a call with budget to spare runs its
// items at once: each of two items waits for the other to start.
func TestForUsesHelpers(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	var started sync.WaitGroup
	started.Add(2)
	done := make(chan struct{})
	go func() {
		For(2, 2, func(int) {
			started.Done()
			started.Wait()
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the two items of For(2, 2, f) never ran at once")
	}
}

// TestForLimitBoundsGoroutines checks that no more than limit items of
// one call run at once, and that a limit of 1 runs them one by one.
func TestForLimitBoundsGoroutines(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	for _, limit := range []int{1, 3} {
		var inFlight highWater
		For(200, limit, func(int) {
			inFlight.enter()
			runtime.Gosched()
			inFlight.leave()
		})
		if got := inFlight.max.Load(); got > int64(limit) {
			t.Fatalf("limit %d: %d items ran at once", limit, got)
		}
	}
}

// TestNestedForSharesOneBudget nests a For in every item of another and
// checks that the helpers in flight never exceed GOMAXPROCS−1, and the
// innermost items running at once never exceed GOMAXPROCS.
func TestNestedForSharesOneBudget(t *testing.T) {
	const procs = 4
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	var helpersMax, leaves highWater
	For(16, 16, func(int) {
		For(16, 16, func(int) {
			helpersMax.note(helpers.Load())
			leaves.enter()
			runtime.Gosched()
			leaves.leave()
		})
	})
	if got := helpersMax.max.Load(); got > procs-1 {
		t.Fatalf("%d helpers in flight, budget is %d", got, procs-1)
	}
	if got := leaves.max.Load(); got > procs {
		t.Fatalf("%d inner items ran at once on %d procs", got, procs)
	}
}

// TestForFollowsGOMAXPROCSAtRunTime lowers GOMAXPROCS to 1 after calls
// at a higher setting: the budget is read at every call, so later calls
// start no helper and run their items one by one.
func TestForFollowsGOMAXPROCSAtRunTime(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	For(64, 64, func(int) {})

	runtime.GOMAXPROCS(1)
	var helpersMax, inFlight highWater
	For(64, 64, func(int) {
		helpersMax.note(helpers.Load())
		inFlight.enter()
		runtime.Gosched()
		inFlight.leave()
	})
	if got := helpersMax.max.Load(); got != 0 {
		t.Fatalf("%d helpers at GOMAXPROCS 1, want none", got)
	}
	if got := inFlight.max.Load(); got != 1 {
		t.Fatalf("%d items ran at once at GOMAXPROCS 1", got)
	}
}
