package main

import (
	"sync"
	"time"
)

// maxLag is how far behind its schedule an http_hot tenant may fall
// before it gives up on a request instead of sending it late. A request
// given up is a failed operation.
const maxLag = 2 * time.Second

// request is the generator's record of one scheduled request.
type request struct {
	sent bool
	// late is how long after its due time the request was sent.
	late time.Duration
	// lat is the time from when the request was due until do returned.
	// Timing from the due time charges a stall to every request that
	// queued behind it, not only to the one that hit it.
	lat time.Duration
}

// openLoop sends rate requests per second for the given seconds from
// clients independent senders, each on its own evenly spaced schedule,
// offset so the clients interleave. Request seq belongs to client
// seq % clients. do performs one request; its results come back in
// seq order beside the generator's own records. A sender never skips
// ahead: while do blocks, that client's later requests wait and their
// latency grows from their due times — until a request is more than
// lag overdue, which the sender gives up on and leaves unsent. After
// each request, with its latency already taken, the sender calls idle.
func openLoop[T any](clients int, rate, seconds float64, lag time.Duration, idle func(), do func(client, seq int) T) ([]request, []T) {
	total := int(rate * seconds)
	reqs, out := make([]request, total), make([]T, total)
	gap := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := c; seq < total; seq += clients {
				due := start.Add(time.Duration(seq) * gap)
				wait := time.Until(due)
				if wait < -lag {
					continue
				}
				if wait > 0 {
					time.Sleep(wait)
				}
				r := &reqs[seq]
				r.sent, r.late = true, max(0, time.Since(due))
				out[seq] = do(c, seq)
				r.lat = time.Since(due)
				idle()
			}
		}()
	}
	wg.Wait()
	return reqs, out
}
