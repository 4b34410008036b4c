package core

import (
	"errors"
	"fmt"

	"github.com/vchain-go/vchain/internal/chain"
)

// ErrDegraded marks a window answer that verified but does not cover
// the full query window: one or more shards were unavailable and their
// heights came back as explicit gaps instead of provable tiles. It is a
// distinct failure class from ErrSoundness/ErrCompleteness — the
// returned tiles are cryptographically correct, the answer is just
// openly incomplete. Callers that accept partial answers check
// errors.Is(err, ErrDegraded) and use the DegradedResult returned
// alongside it; callers that require full coverage treat it as any
// other error.
var ErrDegraded = errors.New("vchain: degraded answer (window has unproven gaps)")

// Gap is one contiguous block span of the query window that the SP
// could not prove: its owning storage slot was down (a quarantined
// shard, or a page-in that failed during the query). Gaps are
// machine-readable: a client knows exactly which heights the verified
// result set says nothing about, and can re-query them later.
type Gap struct {
	// Start and End bound the unproven block span, inclusive.
	Start, End int
}

// Blocks returns the number of heights the gap spans.
func (g Gap) Blocks() int { return g.End - g.Start + 1 }

// DegradedResult is a verified partial window answer: the provable
// tiles (Parts, with their result union in Objects) plus the explicit
// gap report. Parts and Gaps together tile the query window exactly in
// descending height order — the verifier rejects any answer where they
// do not, so an SP can never shrink the window silently; it can only
// declare, verifiably checkably, which spans it failed to serve.
type DegradedResult struct {
	// Objects is the verified result union of every returned part. Its
	// soundness and completeness guarantees are exactly those of a full
	// answer, restricted to the covered spans.
	Objects []chain.Object
	// Parts are the verified tiles, descending by height.
	Parts []WindowPart
	// Gaps are the unproven spans, descending by height. Empty for a
	// full answer.
	Gaps []Gap
}

// Covered returns the number of window heights covered by parts.
func (r *DegradedResult) Covered() int {
	n := 0
	for _, p := range r.Parts {
		n += p.End - p.Start + 1
	}
	return n
}

// VerifyDegraded checks a possibly-partial window answer: parts and
// gaps together must tile [q.StartBlock, q.EndBlock] contiguously in
// descending order, and each part's VO must verify
// against its span. Verification is identical to VerifyWindowParts —
// one shared check collector, one randomized pairing-product flush —
// with gaps allowed to stand in for missing tiles. Per-tile soundness
// and completeness checking is unchanged: a tampered tile in a degraded
// answer is rejected exactly as in a full one.
//
// When gaps is non-empty the call returns the verified DegradedResult
// TOGETHER WITH an error wrapping ErrDegraded, so an answer is never
// silently incomplete: callers must opt into partial results by
// checking errors.Is(err, ErrDegraded) and using the non-nil result.
// Any other error means the answer (even its covered spans) must be
// discarded.
func (v *Verifier) VerifyDegraded(q Query, parts []WindowPart, gaps []Gap) (*DegradedResult, error) {
	cc := newCheckCollector(v.Acc)
	results, err := v.collectParts(q, parts, gaps, cc)
	if err != nil {
		return nil, err
	}
	// One flush for the union: a single randomized pairing-product
	// batch settles every returned tile's deferred checks together.
	if err := v.flush(cc.pending); err != nil {
		return nil, err
	}
	res := &DegradedResult{Objects: results, Parts: parts, Gaps: gaps}
	if len(gaps) > 0 {
		missing := 0
		for _, g := range gaps {
			missing += g.Blocks()
		}
		return res, fmt.Errorf("%w: %d of %d window blocks unproven across %d gap(s)",
			ErrDegraded, missing, q.EndBlock-q.StartBlock+1, len(gaps))
	}
	return res, nil
}

// collectParts is VerifyDegraded's structural phase: it checks that
// parts and gaps tile the window and walks every part's VO, deferring
// each pairing check into cc.
func (v *Verifier) collectParts(q Query, parts []WindowPart, gaps []Gap, cc *checkCollector) ([]chain.Object, error) {
	cnf, err := q.CNF()
	if err != nil {
		return nil, err
	}
	if q.EndBlock >= v.Light.Height() {
		return nil, fmt.Errorf("%w: window end %d beyond synced headers (%d)",
			ErrCompleteness, q.EndBlock, v.Light.Height())
	}
	var results []chain.Object
	expect := q.EndBlock
	pi, gi := 0, 0
	for expect >= q.StartBlock {
		switch {
		case pi < len(parts) && parts[pi].End == expect:
			p := parts[pi]
			if p.VO == nil {
				return nil, fmt.Errorf("%w: window part %d without VO", ErrCompleteness, pi)
			}
			if p.Start < q.StartBlock || p.Start > p.End {
				return nil, fmt.Errorf("%w: window part %d span [%d,%d] outside window [%d,%d]",
					ErrCompleteness, pi, p.Start, p.End, q.StartBlock, q.EndBlock)
			}
			sub := q
			sub.StartBlock, sub.EndBlock = p.Start, p.End
			objs, err := v.collectWindow(sub, cnf, p.VO, cc)
			if err != nil {
				return nil, err
			}
			results = append(results, objs...)
			expect = p.Start - 1
			pi++
		case gi < len(gaps) && gaps[gi].End == expect:
			g := gaps[gi]
			if g.Start < q.StartBlock || g.Start > g.End {
				return nil, fmt.Errorf("%w: gap %d span [%d,%d] outside window [%d,%d]",
					ErrCompleteness, gi, g.Start, g.End, q.StartBlock, q.EndBlock)
			}
			expect = g.Start - 1
			gi++
		case pi < len(parts):
			return nil, fmt.Errorf("%w: window part %d covers [%d,%d], expected end %d",
				ErrCompleteness, pi, parts[pi].Start, parts[pi].End, expect)
		case gi < len(gaps):
			return nil, fmt.Errorf("%w: gap %d covers [%d,%d], expected end %d",
				ErrCompleteness, gi, gaps[gi].Start, gaps[gi].End, expect)
		default:
			return nil, fmt.Errorf("%w: window parts end at height %d but window starts at %d",
				ErrCompleteness, expect+1, q.StartBlock)
		}
	}
	if pi != len(parts) {
		return nil, fmt.Errorf("%w: %d surplus window parts", ErrCompleteness, len(parts)-pi)
	}
	if gi != len(gaps) {
		return nil, fmt.Errorf("%w: %d surplus gaps", ErrCompleteness, len(gaps)-gi)
	}
	return results, nil
}
