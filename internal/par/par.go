// Package par is the process's one fan-out for data-parallel loops: the
// disjointness proofs of a run, the ranges of a Miller loop, the windows
// of an MSM, the powers of a trusted setup and the chunks of a batched
// verification flush all spread their items with For.
//
// Every call runs on its caller's goroutine plus helper goroutines drawn
// from one budget shared by the whole process: GOMAXPROCS−1 helpers in
// flight at once, GOMAXPROCS read at every call, so a program that lowers
// it at run time is obeyed from its next call on. A call that finds the
// budget spent runs its items on the caller alone. A For nested in
// another's items therefore adds helpers only where the outer loop left
// processors idle, and nested fan-outs cannot multiply the goroutines in
// flight.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// helpers counts the helper goroutines in flight across every For call.
var helpers atomic.Int64

// For runs f(i) for every i in [0, n) and returns when all have
// returned. At most limit goroutines work on the call, the caller's
// included; a limit below 2 runs every item on the caller. Each
// goroutine claims the next unclaimed index, so items start in index
// order. f must be safe to run concurrently for distinct indexes.
func For(n, limit int, f func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			f(i)
		}
	}
	var wg sync.WaitGroup
	for range acquire(min(n, limit) - 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer helpers.Add(-1)
			work()
		}()
	}
	work()
	wg.Wait()
}

// acquire takes up to want helpers from the budget and returns how many
// it took; each one gives its place back when it exits.
func acquire(want int) int {
	if want <= 0 {
		return 0
	}
	budget := int64(runtime.GOMAXPROCS(0) - 1)
	for {
		busy := helpers.Load()
		got := min(int64(want), budget-busy)
		if got <= 0 {
			return 0
		}
		if helpers.CompareAndSwap(busy, busy+got) {
			return int(got)
		}
	}
}
