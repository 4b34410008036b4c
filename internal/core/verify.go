package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/par"
)

// Verification failures. Every rejected VO maps onto one of these so
// callers (and tests) can distinguish soundness from completeness
// violations.
var (
	// ErrSoundness flags a tampered object, a non-matching result, or a
	// disjointness proof that does not verify.
	ErrSoundness = errors.New("vchain: soundness violation")
	// ErrCompleteness flags a VO that fails to cover the query window
	// or whose hashes do not reconstruct the committed roots.
	ErrCompleteness = errors.New("vchain: completeness violation")
)

// Verifier is the light-node result checker. It trusts only the header
// store (synced and PoW-validated) and the accumulator public key.
//
// Verification runs in two phases: a cheap structural walk that
// replays hashes, clause membership, and result predicates while
// collecting every pending disjointness check, followed by a flush
// that resolves the collected pairing checks. The default flush is
// batched — checks are grouped into pairing-product batches
// (accumulator.VerifyDisjointBatch) spread over goroutines by par.For —
// which turns the pairing count from two per proof into a handful per
// batch. Accept/reject results are identical to the sequential path:
// batched verification never rejects a VO the sequential verifier
// accepts, and a batched reject is re-checked individually to surface
// the same error the sequential walk would have produced.
type Verifier struct {
	// Acc is the shared accumulator construction (public part).
	Acc accumulator.Accumulator
	// Light is the user's header store.
	Light *chain.LightStore
	// Sequential disables batched pairing verification: every pending
	// check runs its own VerifyDisjoint, in collection order. This is
	// the paper's baseline client and the differential-testing anchor.
	Sequential bool
	// Deprecated: Workers is ignored. GOMAXPROCS alone bounds how many
	// chunks of a batched flush are verified at once; the field stays so
	// that the benchmark harness, which sets it, keeps compiling.
	Workers int
}

// flushBatchSize bounds one batched pairing-product check. Chunks are
// also the unit of parallelism, so the bound keeps per-worker latency
// (and the damage radius of a rejected batch, which is re-verified
// individually) proportionate.
const flushBatchSize = 256

// pendingCheck is one deferred disjointness verification plus the
// error to surface if it fails.
type pendingCheck struct {
	check accumulator.DisjointCheck
	err   error
}

// checkCollector accumulates the structural walk's pending pairing
// checks and memoizes per-clause accumulation values (a query has few
// clauses; a VO references them over and over).
type checkCollector struct {
	acc     accumulator.Accumulator
	pending []pendingCheck
	clauses map[string]accumulator.Acc
}

func newCheckCollector(acc accumulator.Accumulator) *checkCollector {
	return &checkCollector{acc: acc, clauses: make(map[string]accumulator.Acc)}
}

// clauseAcc returns acc(clause), computed once per distinct clause.
func (cc *checkCollector) clauseAcc(cl Clause) (accumulator.Acc, error) {
	key := cl.Key()
	if a, ok := cc.clauses[key]; ok {
		return a, nil
	}
	a, err := cc.acc.Setup(cl.Multiset())
	if err != nil {
		return accumulator.Acc{}, fmt.Errorf("core: clause accumulation: %w", err)
	}
	cc.clauses[key] = a
	return a, nil
}

// add defers one disjointness check; failErr is returned by the flush
// if the check turns out invalid.
func (cc *checkCollector) add(acc1, acc2 accumulator.Acc, proof accumulator.Proof, failErr error) {
	cc.pending = append(cc.pending, pendingCheck{
		check: accumulator.DisjointCheck{Acc1: acc1, Acc2: acc2, Proof: proof},
		err:   failErr,
	})
}

// flush resolves the pending checks. Sequential mode replays them
// one by one in collection order; batched mode splits them into
// flushBatchSize chunks verified concurrently, re-verifying any
// rejected chunk individually so the surfaced error is the first
// failing check in collection order — exactly what the sequential
// flush would return.
func (v *Verifier) flush(checks []pendingCheck) error {
	if len(checks) == 0 {
		return nil
	}
	if v.Sequential {
		for _, pc := range checks {
			if !v.Acc.VerifyDisjoint(pc.check.Acc1, pc.check.Acc2, pc.check.Proof) {
				return pc.err
			}
		}
		return nil
	}

	// locate returns the collection index of the first failing check
	// in checks[lo:hi], or -1 when the chunk verifies.
	locate := func(lo, hi int) int {
		batch := make([]accumulator.DisjointCheck, hi-lo)
		for i := lo; i < hi; i++ {
			batch[i-lo] = checks[i].check
		}
		if v.Acc.VerifyDisjointBatch(batch) {
			return -1
		}
		// The batch is invalid: find the first offending member. Batch
		// verification never rejects a batch whose members all pass, so
		// this scan terminates with a hit (the defensive fallback below
		// covers a randomization false-reject, which has negligible
		// probability but must not turn into a false accept).
		for i := lo; i < hi; i++ {
			if !v.Acc.VerifyDisjoint(checks[i].check.Acc1, checks[i].check.Acc2, checks[i].check.Proof) {
				return i
			}
		}
		return hi - 1
	}

	// firstBad is the lowest collection index of a failing check found
	// so far, or len(checks). A chunk starting past it cannot hold an
	// earlier failure, so it is skipped; every chunk before the first
	// failing one still runs, so the minimum is exact.
	var firstBad atomic.Int64
	firstBad.Store(int64(len(checks)))
	chunks := (len(checks) + flushBatchSize - 1) / flushBatchSize
	par.For(chunks, func(c int) {
		lo := c * flushBatchSize
		if int64(lo) > firstBad.Load() {
			return
		}
		if bad := int64(locate(lo, min(lo+flushBatchSize, len(checks)))); bad >= 0 {
			for cur := firstBad.Load(); bad < cur && !firstBad.CompareAndSwap(cur, bad); cur = firstBad.Load() {
			}
		}
	})
	if bad := firstBad.Load(); bad < int64(len(checks)) {
		return checks[bad].err
	}
	return nil
}

// VerifySpan checks a VO covering the contiguous block span
// [from, to] — the form subscription publications take (§7). The
// query's own window fields are ignored; the span is validated for
// shape and header coverage before the time-window machinery runs. It
// is VerifySpans with one span.
func (v *Verifier) VerifySpan(q Query, from, to int, vo *VO) ([]chain.Object, error) {
	r := v.VerifySpans([]Span{{Query: q, From: from, To: to, VO: vo}})[0]
	return r.Objects, r.Err
}

// Span is one job of VerifySpans: a VO covering the contiguous block
// span [From, To] for Query, whose window fields are ignored.
type Span struct {
	Query    Query
	From, To int
	VO       *VO
}

// SpanResult is VerifySpans' verdict on one span: Err == nil certifies
// Objects as the span's result set, and a non-nil Err leaves Objects
// nil.
type SpanResult struct {
	Objects []chain.Object
	Err     error
}

// VerifySpans checks many spans, such as the subscription publications
// one connection has waiting, with one pairing flush. Each span runs
// the structural walk into its own pending list, the walks sharing one
// clause memo. The union of the lists, byte-identical equations kept
// once, is then flushed as one batch. If that flush rejects, every
// span's list is flushed alone, so a tampered span fails only itself.
// Each result is the one VerifySpan returns for its span alone: the
// same objects and the same error. Sequential flushes every span alone,
// check by check.
func (v *Verifier) VerifySpans(spans []Span) []SpanResult {
	out := make([]SpanResult, len(spans))
	clauses := make(map[string]accumulator.Acc)
	pending := make([][]pendingCheck, len(spans))
	var live []int
	for i, s := range spans {
		cc := &checkCollector{acc: v.Acc, clauses: clauses}
		objs, err := v.collectSpan(s, cc)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Objects, pending[i] = objs, cc.pending
		live = append(live, i)
	}
	if len(live) > 1 && !v.Sequential && v.flush(v.distinct(pending)) == nil {
		return out
	}
	for _, i := range live {
		if err := v.flush(pending[i]); err != nil {
			out[i] = SpanResult{Err: err}
		}
	}
	return out
}

// collectSpan validates one span's shape and runs its structural walk
// into cc.
func (v *Verifier) collectSpan(s Span, cc *checkCollector) ([]chain.Object, error) {
	if s.VO == nil {
		return nil, fmt.Errorf("%w: publication without VO", ErrCompleteness)
	}
	if s.From < 0 || s.To < s.From {
		return nil, fmt.Errorf("%w: invalid publication span [%d,%d]", ErrCompleteness, s.From, s.To)
	}
	q := s.Query
	q.StartBlock, q.EndBlock = s.From, s.To
	return v.collectParts(q, []WindowPart{{Start: s.From, End: s.To, VO: s.VO}}, nil, cc)
}

// distinct concatenates the pending lists, keeping one copy of every
// check whose (acc₁, acc₂, π) encodes to the same bytes: spans whose
// queries share a clause often carry the same proof.
func (v *Verifier) distinct(lists [][]pendingCheck) []pendingCheck {
	var out []pendingCheck
	seen := make(map[string]bool)
	for _, list := range lists {
		for _, pc := range list {
			key := string(v.Acc.AccBytes(pc.check.Acc1)) + string(v.Acc.AccBytes(pc.check.Acc2)) +
				string(v.Acc.ProofBytes(pc.check.Proof))
			if !seen[key] {
				seen[key] = true
				out = append(out, pc)
			}
		}
	}
	return out
}

// VerifyTimeWindow checks a VO against q and the light headers,
// returning the verified result set. Any mismatch between the VO and
// the committed chain state yields an error; a nil error certifies both
// soundness and completeness of the returned objects. It is
// VerifyWindowParts with one part spanning the whole window.
func (v *Verifier) VerifyTimeWindow(q Query, vo *VO) ([]chain.Object, error) {
	return v.VerifyWindowParts(q, []WindowPart{{Start: q.StartBlock, End: q.EndBlock, VO: vo}})
}

// WindowPart is a VO covering the contiguous height span [Start, End]
// of a time-window answer. A strict answer is one part spanning the
// window at every shard count. Only a degraded read returns several:
// one per run of serving heights between gaps, ordered descending by
// height (matching the SP's end-to-start walk).
type WindowPart struct {
	// Start and End bound this part's block span, inclusive.
	Start, End int
	// VO is the part's verification object, exactly as an unsharded SP
	// would produce for the sub-window [Start, End].
	VO *VO
}

// VerifyWindowParts checks a time-window answer given as parts: the
// parts must tile [q.StartBlock, q.EndBlock] contiguously in
// descending order, and each part's VO must verify against its span.
// All parts share one check collector, so every pending pairing check
// resolves in a single randomized pairing-product flush. It is
// VerifyDegraded with no gaps allowed: the strict entry point for
// callers that require full coverage.
func (v *Verifier) VerifyWindowParts(q Query, parts []WindowPart) ([]chain.Object, error) {
	res, err := v.VerifyDegraded(q, parts, nil)
	if err != nil {
		return nil, err
	}
	return res.Objects, nil
}

// collectWindow is the structural phase of time-window verification:
// it replays hashes, clause membership, and result predicates for the
// window [q.StartBlock, q.EndBlock], deferring every pairing check
// into cc. Callers validate the query and flush the collector; sharing
// one collector across calls merges multiple VOs into one batch.
func (v *Verifier) collectWindow(q Query, cnf CNF, vo *VO, cc *checkCollector) ([]chain.Object, error) {
	// Batched groups: collect member digests during traversal, verify
	// each group once at the end.
	groupDigests := make([][]accumulator.Acc, len(vo.Groups))

	var results []chain.Object
	h := q.EndBlock
	idx := 0
	for h >= q.StartBlock {
		if idx >= len(vo.Blocks) {
			return nil, fmt.Errorf("%w: VO ends at height %d but window starts at %d",
				ErrCompleteness, h+1, q.StartBlock)
		}
		bvo := &vo.Blocks[idx]
		idx++
		if bvo.Height != h {
			return nil, fmt.Errorf("%w: VO covers height %d, expected %d",
				ErrCompleteness, bvo.Height, h)
		}
		hdr, err := v.Light.HeaderAt(h)
		if err != nil {
			return nil, fmt.Errorf("%w: missing header %d", ErrCompleteness, h)
		}
		switch {
		case bvo.Skip != nil:
			if err := v.verifySkip(bvo.Skip, h, hdr, cnf, cc); err != nil {
				return nil, err
			}
			h -= bvo.Skip.Distance
		case bvo.Tree != nil:
			objs, err := v.verifyTree(bvo.Tree, hdr, cnf, q, groupDigests, vo, cc)
			if err != nil {
				return nil, err
			}
			results = append(results, objs...)
			h--
		default:
			return nil, fmt.Errorf("%w: empty VO entry at height %d", ErrCompleteness, h)
		}
	}
	if idx != len(vo.Blocks) {
		return nil, fmt.Errorf("%w: %d surplus VO entries", ErrCompleteness, len(vo.Blocks)-idx)
	}

	// Verify batched groups: sum the member digests and register one
	// aggregated check per clause (§6.3).
	for gi, g := range vo.Groups {
		if len(groupDigests[gi]) == 0 {
			continue // group never referenced; harmless padding
		}
		if !cnf.ContainsClause(g.Clause) {
			return nil, fmt.Errorf("%w: batch group %d proves a foreign clause", ErrSoundness, gi)
		}
		if !v.Acc.ValidateProof(g.Proof) {
			return nil, fmt.Errorf("%w: malformed batched proof in group %d", ErrSoundness, gi)
		}
		sum, err := v.Acc.Sum(groupDigests[gi]...)
		if err != nil {
			return nil, fmt.Errorf("%w: batch group %d: %v", ErrSoundness, gi, err)
		}
		clAcc, err := cc.clauseAcc(g.Clause)
		if err != nil {
			return nil, err
		}
		cc.add(sum, clAcc, g.Proof,
			fmt.Errorf("%w: batched disjointness proof for group %d rejected", ErrSoundness, gi))
	}
	return results, nil
}

// verifySkip checks an inter-block jump: clause membership,
// SkipListRoot reconstruction, landing-hash agreement with the local
// headers, and (deferred) proof validity.
func (v *Verifier) verifySkip(s *SkipVO, height int, hdr chain.Header, cnf CNF, cc *checkCollector) error {
	if !cnf.ContainsClause(s.Clause) {
		return fmt.Errorf("%w: skip at %d proves a foreign clause", ErrSoundness, height)
	}
	if !v.Acc.ValidateAcc(s.Digest) || !v.Acc.ValidateProof(s.Proof) {
		return fmt.Errorf("%w: malformed group elements in skip at %d", ErrSoundness, height)
	}
	clAcc, err := cc.clauseAcc(s.Clause)
	if err != nil {
		return err
	}
	cc.add(s.Digest, clAcc, s.Proof,
		fmt.Errorf("%w: skip disjointness proof at %d rejected", ErrSoundness, height))
	// Reconstruct SkipListRoot from this entry plus sibling hashes.
	entry := SkipEntry{Distance: s.Distance, PrevHash: s.PrevHash, Digest: s.Digest}
	hashes := map[int]chain.Digest{s.Distance: entry.hashEntry(v.Acc)}
	for d, hash := range s.Siblings {
		if d == s.Distance {
			return fmt.Errorf("%w: duplicate skip distance %d in VO", ErrCompleteness, d)
		}
		hashes[d] = hash
	}
	ds := slices.Sorted(maps.Keys(hashes))
	levels := make([]chain.Digest, len(ds))
	for i, d := range ds {
		levels[i] = hashes[d]
	}
	if skipListRoot(levels) != hdr.SkipListRoot {
		return fmt.Errorf("%w: SkipListRoot mismatch at height %d", ErrCompleteness, height)
	}
	// The jump must land where the chain says block height−Distance is.
	land := height - s.Distance
	if land >= 0 {
		landHdr, err := v.Light.HeaderAt(land)
		if err != nil {
			return fmt.Errorf("%w: missing landing header %d", ErrCompleteness, land)
		}
		if landHdr.Hash() != s.PrevHash {
			return fmt.Errorf("%w: skip at %d lands on a foreign block", ErrCompleteness, height)
		}
	}
	return nil
}

// verifyTree replays one block's NodeVO: recomputes the Merkle root,
// registers every mismatch proof with the check collector (or with its
// batch group), and validates every result object against the raw
// query predicate.
func (v *Verifier) verifyTree(root *NodeVO, hdr chain.Header, cnf CNF, q Query,
	groupDigests [][]accumulator.Acc, vo *VO, cc *checkCollector) ([]chain.Object, error) {

	var results []chain.Object
	var walk func(n *NodeVO) (chain.Digest, error)
	walk = func(n *NodeVO) (chain.Digest, error) {
		switch n.Kind {
		case KindResult:
			if n.Obj == nil {
				return chain.Digest{}, fmt.Errorf("%w: result node without object", ErrSoundness)
			}
			// Soundness: the object must actually satisfy the query.
			if !q.MatchesObject(n.Obj.V, n.Obj.W) {
				return chain.Digest{}, fmt.Errorf("%w: returned object %d does not satisfy the query",
					ErrSoundness, n.Obj.ID)
			}
			results = append(results, n.Obj.Clone())
			pre := leafPreHash(n.Obj.Hash())
			if n.HasDigest {
				return nodeHash(pre, v.Acc.AccBytes(n.Digest)), nil
			}
			return pre, nil

		case KindMismatch:
			if !n.HasDigest {
				return chain.Digest{}, fmt.Errorf("%w: mismatch node without digest", ErrSoundness)
			}
			if !cnf.ContainsClause(n.Clause) {
				return chain.Digest{}, fmt.Errorf("%w: mismatch proof against a foreign clause", ErrSoundness)
			}
			if !v.Acc.ValidateAcc(n.Digest) {
				return chain.Digest{}, fmt.Errorf("%w: malformed digest in mismatch node", ErrSoundness)
			}
			if n.Proof != nil && !v.Acc.ValidateProof(*n.Proof) {
				return chain.Digest{}, fmt.Errorf("%w: malformed proof in mismatch node", ErrSoundness)
			}
			switch {
			case n.Proof != nil:
				clAcc, err := cc.clauseAcc(n.Clause)
				if err != nil {
					return chain.Digest{}, err
				}
				cc.add(n.Digest, clAcc, *n.Proof,
					fmt.Errorf("%w: disjointness proof rejected", ErrSoundness))
			case n.Group >= 0 && n.Group < len(vo.Groups):
				if !vo.Groups[n.Group].Clause.Equal(n.Clause) {
					return chain.Digest{}, fmt.Errorf("%w: node clause differs from its batch group", ErrSoundness)
				}
				groupDigests[n.Group] = append(groupDigests[n.Group], n.Digest)
			default:
				return chain.Digest{}, fmt.Errorf("%w: mismatch node with neither proof nor group", ErrSoundness)
			}
			return nodeHash(n.PreHash, v.Acc.AccBytes(n.Digest)), nil

		case KindExpand:
			if n.Left == nil || n.Right == nil {
				return chain.Digest{}, fmt.Errorf("%w: expanded node missing children", ErrCompleteness)
			}
			l, err := walk(n.Left)
			if err != nil {
				return chain.Digest{}, err
			}
			r, err := walk(n.Right)
			if err != nil {
				return chain.Digest{}, err
			}
			pre := internalPreHash(l, r)
			if n.HasDigest {
				return nodeHash(pre, v.Acc.AccBytes(n.Digest)), nil
			}
			return pre, nil

		default:
			return chain.Digest{}, fmt.Errorf("%w: unknown VO node kind %d", ErrSoundness, n.Kind)
		}
	}
	got, err := walk(root)
	if err != nil {
		return nil, err
	}
	// Completeness + binding: the reconstructed root must equal the
	// mined commitment the light node already holds.
	if got != hdr.MerkleRoot {
		return nil, fmt.Errorf("%w: MerkleRoot mismatch at height %d", ErrCompleteness, hdr.Height)
	}
	return results, nil
}
