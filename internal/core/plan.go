package core

import (
	"context"
	"errors"
	"fmt"
)

// segment is a maximal run of a window's heights whose owning slots are
// all serving (a part) or all down (a gap).
type segment struct {
	start, end int
	down       bool
}

// plan cuts [start, end] into segments, descending by height, one band
// head at a time. Adjacent down bands merge, so a gap never borders a
// gap and a window with every slot serving is one segment.
func (n *FullNode) plan(start, end int, down []bool) []segment {
	var out []segment
	for h := end; h >= start; {
		lo := max(h/n.band*n.band, start)
		d := down[n.Owner(h)]
		if k := len(out) - 1; k >= 0 && out[k].down == d {
			out[k].start = lo
		} else {
			out = append(out, segment{start: lo, end: h, down: d})
		}
		h = lo - 1
	}
	return out
}

// failView is the node as one query's ChainView. It remembers the
// first height whose page-in failed, so a storage fault is charged to
// the slot owning that height even when a skip reached it across a
// band edge.
type failView struct {
	*FullNode
	failed int
}

// ADSAt implements ChainView.
func (v *failView) ADSAt(h int) (*BlockADS, error) {
	ads, err := v.FullNode.ADSAt(h)
	if err != nil && v.failed < 0 {
		v.failed = h
	}
	return ads, err
}

// TimeWindowParts answers a time-window query with one walk of the
// window onto one proof run: a single part, byte for byte the VO of
// SP.TimeWindowQuery, at every slot count. This is the strict path: a
// slot the Guard refuses, or any walk failure, fails the whole query
// before a single proof is computed, and feeds no breaker. Verifiers
// resolve the parts via Verifier.VerifyWindowParts.
func (n *FullNode) TimeWindowParts(ctx context.Context, q Query, batched bool) ([]WindowPart, error) {
	parts, _, err := n.window(ctx, q, batched, false)
	return parts, err
}

// TimeWindowDegraded is the degraded-read path. Heights whose slot the
// Guard refuses, or whose slot fails a page-in during the walk
// (ErrADSUnavailable), come back as Gaps instead of failing the query;
// the failure is reported to the Guard, so repeated sickness trips the
// slot's breaker. Every other error fails the query as on the strict
// path. Parts and gaps tile the window in descending order, and
// Verifier.VerifyDegraded checks that tiling, so a gap hides nothing
// silently. With every slot serving the answer equals the strict one.
func (n *FullNode) TimeWindowDegraded(ctx context.Context, q Query, batched bool) ([]WindowPart, []Gap, error) {
	return n.window(ctx, q, batched, true)
}

// window plans q over the serving slots, walks every part onto one
// run, and proves the run once. A degraded page-in failure marks its
// height's slot down and plans again, at most once per slot.
func (n *FullNode) window(ctx context.Context, q Query, batched, degraded bool) ([]WindowPart, []Gap, error) {
	if _, err := q.CNF(); err != nil {
		return nil, nil, err
	}
	if q.StartBlock < 0 || q.EndBlock < q.StartBlock {
		return nil, nil, fmt.Errorf("core: invalid block window [%d, %d]", q.StartBlock, q.EndBlock)
	}
	if height := n.Height(); q.EndBlock >= height {
		return nil, nil, fmt.Errorf("core: window end %d beyond chain height %d", q.EndBlock, height)
	}
	down := make([]bool, len(n.slots))
	for h := q.EndBlock; n.Guard != nil && h >= q.StartBlock; h = h/n.band*n.band - 1 {
		if o := n.Owner(h); !down[o] {
			if err := n.Guard.Admit(o); err != nil {
				if !degraded {
					return nil, nil, fmt.Errorf("core: window [%d, %d]: %w", q.StartBlock, q.EndBlock, err)
				}
				down[o] = true
			}
		}
	}

	view := &failView{FullNode: n}
	sp := n.SP(batched)
	sp.View = view
	run := sp.Engine.NewRun()
replan:
	for {
		var (
			parts []WindowPart
			gaps  []Gap
		)
		run.Truncate(0)
		view.failed = -1
		for _, s := range n.plan(q.StartBlock, q.EndBlock, down) {
			if s.down {
				gaps = append(gaps, Gap{Start: s.start, End: s.end})
				continue
			}
			sub := q
			sub.StartBlock, sub.EndBlock = s.start, s.end
			vo, err := sp.Walk(ctx, sub, run)
			if err == nil {
				parts = append(parts, WindowPart{Start: s.start, End: s.end, VO: vo})
				continue
			}
			// Only a storage fault attributable to a serving slot may
			// become a gap: a client must not be able to talk healthy
			// slots into quarantine, and a deadline is the caller's
			// budget, not a slot fault.
			if !degraded || ctx.Err() != nil || !errors.Is(err, ErrADSUnavailable) ||
				view.failed < 0 || down[n.Owner(view.failed)] {
				return nil, nil, err
			}
			o := n.Owner(view.failed)
			down[o] = true
			if n.Guard != nil {
				n.Guard.Report(o, err)
			}
			continue replan
		}
		if err := run.WaitCtx(ctx); err != nil {
			return nil, nil, fmt.Errorf("core: disjointness proof: %w", err)
		}
		return parts, gaps, nil
	}
}
