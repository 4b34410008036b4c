package shard

import (
	"context"
	"errors"
	"fmt"

	"github.com/vchain-go/vchain/internal/core"
)

// span is one maximal run of consecutive heights owned by a single
// shard, inside a query window.
type span struct {
	owner      int
	start, end int
}

// spans slices the window [start, end] into per-shard spans, ordered
// descending by height (matching the SP's end-to-start walk). Adjacent
// bands with the same owner merge into one span, so a single-shard
// node plans exactly one span per window.
func (n *Node) spans(start, end int) []span {
	var out []span
	h := end
	for h >= start {
		o := n.Owner(h)
		lo := (h / n.Band()) * n.Band()
		if lo < start {
			lo = start
		}
		if len(out) > 0 && out[len(out)-1].owner == o {
			out[len(out)-1].start = lo
		} else {
			out = append(out, span{owner: o, start: lo, end: h})
		}
		h = lo - 1
	}
	return out
}

// TimeWindowParts answers a time-window query as per-span parts: the
// planner slices the window into per-shard spans, walks each span onto
// one proof run of the node's engine, proves the whole run at once, and
// returns the per-span VOs as parts ordered descending by height. The
// parts tile the window exactly; Verifier.VerifyWindowParts resolves
// their union through one randomized pairing-product batch, and the
// merged result set is byte-identical to the unsharded SP's (skips only
// ever elide result-free blocks).
//
// This is the strict path: a quarantined shard in the plan, or a span
// whose walk fails, fails the whole query before a single proof is
// computed.
func (n *Node) TimeWindowParts(ctx context.Context, q core.Query, batched bool) ([]core.WindowPart, error) {
	parts, _, err := n.scatter(ctx, q, batched, false)
	return parts, err
}

// TimeWindowDegraded is the degraded-read path: quarantined shards'
// spans — and spans whose shard's storage fails mid-query
// (core.ErrADSUnavailable; any other span error fails the query exactly
// as on the strict path) — are returned as Gaps
// instead of failing the query, so the client still gets every
// provable part of the window plus a machine-readable account of what
// is missing. The parts and gaps together tile the window exactly;
// Verifier.VerifyDegraded checks that tiling cryptographically, so a
// gap can hide nothing silently. A context error still fails the whole
// call — a deadline is the caller's budget, not a shard fault.
func (n *Node) TimeWindowDegraded(ctx context.Context, q core.Query, batched bool) ([]core.WindowPart, []core.Gap, error) {
	return n.scatter(ctx, q, batched, true)
}

// scatter is the planner's engine: it validates the window, plans the
// spans, walks them in plan order onto one run, waits for that run
// once, and assembles parts (and, in degraded mode, gaps) in plan
// order.
func (n *Node) scatter(ctx context.Context, q core.Query, batched, degraded bool) ([]core.WindowPart, []core.Gap, error) {
	if _, err := q.CNF(); err != nil {
		return nil, nil, err
	}
	if q.StartBlock < 0 || q.EndBlock < q.StartBlock {
		return nil, nil, fmt.Errorf("shard: invalid block window [%d, %d]", q.StartBlock, q.EndBlock)
	}
	if height := n.Height(); q.EndBlock >= height {
		return nil, nil, fmt.Errorf("shard: window end %d beyond chain height %d", q.EndBlock, height)
	}

	plan := n.spans(q.StartBlock, q.EndBlock)

	// down marks owners whose spans become gaps (degraded only).
	// Quarantined owners shed load before any span is walked: strict
	// queries fail fast, degraded ones gap the owner's spans.
	down := make(map[int]bool)
	for _, s := range plan {
		if down[s.owner] || n.shards[s.owner].admit() {
			continue
		}
		if !degraded {
			return nil, nil, fmt.Errorf("shard %d: span [%d,%d]: %w", s.owner, s.start, s.end, ErrShardUnavailable)
		}
		down[s.owner] = true
	}

	sp := n.SP(batched)
	run := sp.Engine.NewRun()
	vos := make([]*core.VO, len(plan)) // nil: the span becomes a gap
	for i, s := range plan {
		if down[s.owner] {
			continue
		}
		sub := q
		sub.StartBlock, sub.EndBlock = s.start, s.end
		vo, err := sp.Walk(ctx, sub, run)
		if err == nil {
			vos[i] = vo
			continue
		}
		if !degraded || ctx.Err() != nil || !errors.Is(err, core.ErrADSUnavailable) {
			// Strict mode, the deadline/cancel reached us, or the
			// failure is the query's own (a clause the key cannot
			// prove, say) rather than the shard's: the whole query
			// fails. Only storage faults may gap a span — a client must
			// not be able to talk healthy shards into quarantine.
			return nil, nil, fmt.Errorf("shard %d: span [%d,%d]: %w", s.owner, s.start, s.end, err)
		}
		// Degraded mode: this shard's storage just proved itself sick.
		// Walk withdrew the span's proofs from the run; the span and
		// the owner's later spans become gaps, and the failure feeds
		// the breaker so repeated sickness quarantines it.
		n.shards[s.owner].fail(err)
		down[s.owner] = true
	}
	if err := run.WaitCtx(ctx); err != nil {
		return nil, nil, fmt.Errorf("shard: disjointness proof: %w", err)
	}

	// Assemble in plan order (descending by height). Adjacent gaps
	// merge so a two-span outage reads as one hole.
	var (
		parts []core.WindowPart
		gaps  []core.Gap
	)
	for i, s := range plan {
		if vos[i] == nil {
			if len(gaps) > 0 && gaps[len(gaps)-1].Start == s.end+1 {
				gaps[len(gaps)-1].Start = s.start
			} else {
				gaps = append(gaps, core.Gap{Start: s.start, End: s.end})
			}
			continue
		}
		parts = append(parts, core.WindowPart{Start: s.start, End: s.end, VO: vos[i]})
	}
	return parts, gaps, nil
}
