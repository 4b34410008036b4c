package shard

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"github.com/vchain-go/vchain/internal/adstore"
	"github.com/vchain-go/vchain/internal/storage"
)

// Health is a shard's position in the supervision state machine:
//
//	Healthy ──failure──▶ Degraded ──threshold──▶ Quarantined
//	   ▲                    │                        │
//	   └──────success───────┘      supervisor restart┘
//
// A Degraded shard still serves (its failures may be transient); a
// Quarantined shard's breaker is open — commits to it fail fast and
// degraded reads report its heights as gaps — until the
// supervisor restores it from its durable log.
type Health int

const (
	// Healthy: the shard serves normally.
	Healthy Health = iota
	// Degraded: recent failures below the breaker threshold; still
	// serving, one success away from Healthy.
	Degraded
	// Quarantined: the breaker is open; the shard sheds load until a
	// supervisor restart succeeds.
	Quarantined
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// ErrShardUnavailable marks operations refused because the owning
// shard is quarantined. The degraded query path converts it into gaps;
// the strict path surfaces it.
var ErrShardUnavailable = errors.New("shard: shard unavailable (quarantined)")

// Stats is one shard's observable state: health, failure accounting,
// and its decoded-ADS counters.
type Stats struct {
	// Shard is the shard index.
	Shard int
	// Health is the shard's current supervision state.
	Health Health
	// ADS snapshots the shard's decoded-ADS source counters (cache
	// hits, misses, page-in decodes, footprint).
	ADS adstore.Stats
	// Failures counts backend failures (including failed restarts).
	Failures uint64
	// Restarts counts successful supervisor restarts.
	Restarts uint64
	// BreakerTrips counts transitions into Quarantined.
	BreakerTrips uint64
	// LastError is the most recent failure, "" when none.
	LastError string
}

// fail records a backend failure: Degraded below the threshold,
// Quarantined (breaker trip) at it. A threshold < 0 disables tripping.
func (w *worker) fail(err error) {
	w.hmu.Lock()
	defer w.hmu.Unlock()
	w.failures++
	w.consecutive++
	w.lastErr = err
	if w.health == Quarantined {
		return
	}
	if w.threshold > 0 && w.consecutive >= w.threshold {
		w.health = Quarantined
		w.trips++
		w.trippedAt = time.Now()
		return
	}
	w.health = Degraded
}

// ok records a successful backend operation: any non-quarantined shard
// snaps back to Healthy. A quarantined shard only recovers through a
// restart — a stray success must not silently close an open breaker.
func (w *worker) ok() {
	w.hmu.Lock()
	defer w.hmu.Unlock()
	if w.health == Quarantined {
		return
	}
	w.health = Healthy
	w.consecutive = 0
}

// admit reports whether the shard accepts work (breaker closed).
func (w *worker) admit() bool {
	w.hmu.Lock()
	defer w.hmu.Unlock()
	return w.health != Quarantined
}

// forceTrip opens the breaker unconditionally (external quarantine).
func (w *worker) forceTrip(reason error) {
	w.hmu.Lock()
	defer w.hmu.Unlock()
	if w.health != Quarantined {
		w.trips++
	}
	w.health = Quarantined
	w.trippedAt = time.Now()
	w.lastErr = reason
}

// recovered closes the breaker after a successful restart.
func (w *worker) recovered() {
	w.hmu.Lock()
	defer w.hmu.Unlock()
	w.health = Healthy
	w.consecutive = 0
	w.restarts++
	w.lastErr = nil
}

// restartFailed records a failed restart attempt and re-stamps the
// cooldown so the supervisor backs off before retrying.
func (w *worker) restartFailed(err error) {
	w.hmu.Lock()
	defer w.hmu.Unlock()
	w.failures++
	w.lastErr = err
	w.trippedAt = time.Now()
}

// dueForRestart reports whether the shard is quarantined and its
// cooldown has elapsed.
func (w *worker) dueForRestart(cooldown time.Duration) bool {
	w.hmu.Lock()
	defer w.hmu.Unlock()
	return w.health == Quarantined && time.Since(w.trippedAt) >= cooldown
}

// stats snapshots the worker's observable state.
func (w *worker) stats() Stats {
	w.hmu.Lock()
	defer w.hmu.Unlock()
	s := Stats{
		Shard:        w.id,
		Health:       w.health,
		Failures:     w.failures,
		Restarts:     w.restarts,
		BreakerTrips: w.trips,
	}
	if w.lastErr != nil {
		s.LastError = w.lastErr.Error()
	}
	return s
}

// Health returns shard i's current supervision state.
func (n *Node) Health(i int) Health {
	if i < 0 || i >= len(n.shards) {
		return Quarantined
	}
	w := n.shards[i]
	w.hmu.Lock()
	defer w.hmu.Unlock()
	return w.health
}

// Quarantine force-opens shard i's breaker: commits to it fail fast
// and degraded queries report its heights as gaps until RestartShard
// (or the supervisor) restores it. Tests and operators use it to model
// a shard known to be sick before its failures accumulate.
func (n *Node) Quarantine(i int, reason error) error {
	if i < 0 || i >= len(n.shards) {
		return fmt.Errorf("shard: no shard %d", i)
	}
	if reason == nil {
		reason = errors.New("operator quarantine")
	}
	n.shards[i].forceTrip(reason)
	return nil
}

// RestartShard closes and re-opens shard i from its durable log
// (core.FullNode.RestartSlot: surplus records truncated, every record's
// block header re-verified against the chain index, decoded ADSs
// repopulating lazily), and closes the breaker on success. On failure
// the shard stays quarantined and the cooldown restarts.
//
// Ephemeral shards (no store directory) have no log to re-open: the
// restart just closes the breaker, modelling a transient fault blowing
// over. Their in-RAM ADSs were never lost — commit fails before
// touching state.
func (n *Node) RestartShard(i int) error {
	if i < 0 || i >= len(n.shards) {
		return fmt.Errorf("shard: no shard %d", i)
	}
	w := n.shards[i]
	if n.dir != "" {
		err := n.RestartSlot(i, func() (storage.Backend, error) {
			log, err := storage.Open(filepath.Join(n.dir, shardDir(i)), n.opts.Storage)
			if err != nil {
				return nil, fmt.Errorf("re-opening log: %w", err)
			}
			return n.opts.wrap(i, log), nil
		})
		if err != nil {
			err = fmt.Errorf("shard %d: restart: %w", i, err)
			w.restartFailed(err)
			return err
		}
	}
	w.recovered()
	return nil
}

// CheckShards restarts every quarantined shard whose cooldown has
// elapsed and returns how many restarts succeeded. The supervisor
// calls it periodically; tests call it directly for determinism.
func (n *Node) CheckShards() int {
	restarted := 0
	for i, w := range n.shards {
		if !w.dueForRestart(n.opts.BreakerCooldown) {
			continue
		}
		if err := n.RestartShard(i); err == nil {
			restarted++
		}
	}
	return restarted
}

// Supervise starts a background supervisor that runs CheckShards every
// interval (0 means the breaker cooldown). The returned stop function
// halts it and waits for the loop to exit.
func (n *Node) Supervise(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = n.opts.BreakerCooldown
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				n.CheckShards()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
