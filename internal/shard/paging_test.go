package shard_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/fault"
	"github.com/vchain-go/vchain/internal/proofs"
	"github.com/vchain-go/vchain/internal/shard"
	"github.com/vchain-go/vchain/internal/storage"
)

// totalDecodes sums the decoded-ADS page-in counters across shards.
func totalDecodes(stats []shard.Stats) int64 {
	var n int64
	for _, st := range stats {
		n += st.ADS.Decodes
	}
	return n
}

// TestShardedLazyReopenPagesIn reopens a durable sharded node and
// checks that no ADS is decoded until a query actually needs it: the
// reopen replays headers only, and the first verified window query
// pages the bodies in on demand.
func TestShardedLazyReopenPagesIn(t *testing.T) {
	acc := testAcc(t)
	opts := shard.Options{Shards: 2, Band: 2, Workers: 2, ADSCacheBlocks: 4}
	dir := t.TempDir()

	node, _, err := shard.Open(0, testBuilder(acc), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 12
	mineBlocks(t, node, blocks)
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}

	re, _, err := shard.Open(0, testBuilder(acc), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Height() != blocks {
		t.Fatalf("reopened height %d, want %d", re.Height(), blocks)
	}
	if got := totalDecodes(re.ShardStats()); got != 0 {
		t.Fatalf("reopen decoded %d ADSs before any query, want 0 (lazy)", got)
	}

	q := sedanBenzQuery(0, blocks-1)
	parts, err := re.TimeWindowParts(context.Background(), q, false)
	if err != nil {
		t.Fatal(err)
	}
	ver := &core.Verifier{Acc: acc, Light: lightFor(t, re.Headers())}
	objs, err := ver.VerifyWindowParts(q, parts)
	if err != nil {
		t.Fatalf("reopened node's window parts rejected: %v", err)
	}
	if len(objs) != blocks {
		t.Fatalf("results %d, want %d", len(objs), blocks)
	}
	if got := totalDecodes(re.ShardStats()); got == 0 {
		t.Fatal("query over a lazily reopened node decoded no ADSs")
	}
	// The cache budget (4 total, split 2 per shard) actually bounds
	// residency: a 12-block chain cannot fit.
	for i, st := range re.ShardStats() {
		if st.ADS.Entries > 2 {
			t.Fatalf("shard %d holds %d decoded ADSs, budget is 2", i, st.ADS.Entries)
		}
	}
}

// reopenWithFaultyShard reopens a node (reopenWrapped) whose target
// shard's backend goes through the returned fault schedule. The
// replay reads every record for its block half, so arm read faults
// only after it returns.
func reopenWithFaultyShard(t *testing.T, opts shard.Options, target, blocks int) (*shard.Node, *fault.Schedule) {
	t.Helper()
	sched := fault.NewSchedule()
	wrap := func(b storage.Backend) storage.Backend { return fault.WrapBackend(b, sched) }
	return reopenWrapped(t, opts, target, blocks, wrap), sched
}

// reopenWrapped mines blocks into a durable node whose target shard's
// backend is wrapped by wrap, closes it, and reopens it lazily: from
// then on any ADS page-in on the target shard goes through the wrapper.
func reopenWrapped(t *testing.T, opts shard.Options, target, blocks int, wrap func(storage.Backend) storage.Backend) *shard.Node {
	t.Helper()
	acc := testAcc(t)
	opts.WrapBackend = func(id int, b storage.Backend) storage.Backend {
		if id == target {
			return wrap(b)
		}
		return b
	}
	dir := t.TempDir()
	node, _, err := shard.Open(0, testBuilder(acc), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mineBlocks(t, node, blocks)
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	re, _, err := shard.Open(0, testBuilder(acc), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	return re
}

// readBudget fails the reads of the backends it wraps once armed and
// its budget is spent — a disk that serves a few page-ins and then
// breaks mid-walk.
type readBudget struct {
	armed atomic.Bool
	left  atomic.Int64
	// goroutines is runtime.NumGoroutine() at the first failed read.
	goroutines atomic.Int64
}

// arm lets the next pass reads through and fails every later one.
func (rb *readBudget) arm(pass int) {
	rb.left.Store(int64(pass))
	rb.armed.Store(true)
}

func (rb *readBudget) wrap(b storage.Backend) storage.Backend { return budgetedBackend{b, rb} }

type budgetedBackend struct {
	storage.Backend
	rb *readBudget
}

func (b budgetedBackend) Read(i int) ([]byte, error) {
	if b.rb.armed.Load() && b.rb.left.Add(-1) < 0 {
		b.rb.goroutines.CompareAndSwap(0, int64(runtime.NumGoroutine()))
		return nil, fmt.Errorf("reading record %d: %w", i, fault.ErrInjected)
	}
	return b.Backend.Read(i)
}

// TestPageInFaultDegradesToGap injects read faults into one shard's
// log after a lazy reopen: a fault that strikes mid-walk gaps the
// shard's heights without proving any of them, strict queries surface a typed error (no
// panic), degraded queries gap out exactly the sick shard's heights,
// and repeated page-in failures feed the breaker until the shard
// quarantines.
func TestPageInFaultDegradesToGap(t *testing.T) {
	const target, blocks = 1, 8 // shard 1 owns {2,3} and {6,7}
	opts := shard.Options{
		Shards:           2,
		Band:             2,
		Workers:          2,
		ADSCacheBlocks:   2, // 1 per shard: every older height must page in
		FailureThreshold: 3,
		BreakerCooldown:  time.Hour,
	}
	q := sedanBenzQuery(0, blocks-1)
	wantGaps := []core.Gap{{Start: 6, End: 7}, {Start: 2, End: 3}}

	// A fault mid-walk: shard 1's first page-in (height 7) succeeds and
	// the next (height 6) fails, so the walk has already scheduled
	// height 7's proofs when it fails. The gapped heights must leave no
	// proof task behind: the query proves exactly what a fresh engine
	// proves for the returned parts, request for request.
	var reads readBudget
	mid := reopenWrapped(t, opts, target, blocks, reads.wrap)
	reads.arm(1)
	before := mid.ProofStats()
	parts, gaps, err := mid.TimeWindowDegraded(context.Background(), q, false)
	if err != nil {
		t.Fatalf("degraded query with a mid-span fault: %v", err)
	}
	if !reflect.DeepEqual(gaps, wantGaps) {
		t.Fatalf("mid-span fault: gaps = %v, want %v", gaps, wantGaps)
	}
	ref := proofs.New(mid.Acc(), proofs.Options{})
	sp := &core.SP{Acc: mid.Acc(), View: mid.FullNode, Engine: ref}
	run := ref.NewRun()
	for _, p := range parts {
		sub := q
		sub.StartBlock, sub.EndBlock = p.Start, p.End
		if _, err := sp.Walk(context.Background(), sub, run); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.WaitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, want := mid.ProofStats(), ref.Stats()
	requests := func(s proofs.Stats) uint64 { return s.CacheHits + s.CacheMisses }
	if got.Proofs-before.Proofs != want.Proofs || requests(got)-requests(before) != requests(want) {
		t.Fatalf("degraded query computed %d proofs over %d requests; its parts need %d over %d",
			got.Proofs-before.Proofs, requests(got)-requests(before), want.Proofs, requests(want))
	}

	re, sched := reopenWithFaultyShard(t, opts, target, blocks)
	sched.NextFailures(fault.OpRead, 1000)

	if _, err := re.TimeWindowParts(context.Background(), q, false); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("strict query over broken shard: err = %v, want injected page-in error", err)
	}

	parts, gaps, err = re.TimeWindowDegraded(context.Background(), q, false)
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	if !reflect.DeepEqual(gaps, wantGaps) {
		t.Fatalf("gaps = %v, want %v (exactly the broken shard's heights)", gaps, wantGaps)
	}
	ver := &core.Verifier{Acc: re.Acc(), Light: lightFor(t, re.Headers())}
	if _, err := ver.VerifyDegraded(q, parts, gaps); !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("VerifyDegraded err = %v, want ErrDegraded", err)
	}

	// Page-in failures feed the breaker like any other shard fault:
	// keep asking and the shard quarantines.
	for i := 0; i < 5 && re.Health(target) != shard.Quarantined; i++ {
		if _, _, err := re.TimeWindowDegraded(context.Background(), q, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := re.Health(target); got != shard.Quarantined {
		t.Fatalf("shard %d health %v after repeated page-in failures, want quarantined", target, got)
	}
	if st := re.ShardStats()[target]; st.Failures == 0 {
		t.Fatalf("page-in failures not recorded in shard stats: %+v", st)
	}
}

// TestRestartShardRepopulatesLazily restarts a quarantined shard and
// checks the restart itself decodes no ADS bodies — header-only
// verification — with the decoded set repopulating on the first query.
func TestRestartShardRepopulatesLazily(t *testing.T) {
	const target = 1
	acc := testAcc(t)
	opts := shard.Options{Shards: 2, Band: 2, Workers: 2, ADSCacheBlocks: 4}
	node, _, err := shard.Open(0, testBuilder(acc), t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	const blocks = 8
	mineBlocks(t, node, blocks)

	if err := node.Quarantine(target, errors.New("operator fence")); err != nil {
		t.Fatal(err)
	}
	if err := node.RestartShard(target); err != nil {
		t.Fatalf("RestartShard: %v", err)
	}
	if got := node.Health(target); got != shard.Healthy {
		t.Fatalf("shard %d health %v after restart, want healthy", target, got)
	}
	if got := node.ShardStats()[target].ADS.Decodes; got != 0 {
		t.Fatalf("restart decoded %d ADSs eagerly, want 0 (lazy repopulation)", got)
	}

	// First query touching the restarted shard pages its ADSs back in
	// and still verifies.
	q := sedanBenzQuery(2, 3) // owned by shard 1
	parts, err := node.TimeWindowParts(context.Background(), q, false)
	if err != nil {
		t.Fatal(err)
	}
	ver := &core.Verifier{Acc: acc, Light: lightFor(t, node.Headers())}
	if _, err := ver.VerifyWindowParts(q, parts); err != nil {
		t.Fatalf("restarted shard's parts rejected: %v", err)
	}
	if got := node.ShardStats()[target].ADS.Decodes; got == 0 {
		t.Fatal("query after restart decoded no ADSs")
	}
}

// TestSkipSpanPageInFault fails a page-in inside a skip's span. With
// bands of 4 on 2 shards and a query no block matches, the walk tries
// the skips at height 15, whose multisets are derived from the covered
// heights 14, 13, …. Height 15 pages in and height 14 fails: the
// strict query fails with ErrADSUnavailable, and the degraded query
// gaps shard 1's heights.
func TestSkipSpanPageInFault(t *testing.T) {
	const target, blocks = 1, 16
	opts := shard.Options{Shards: 2, Band: 4, Workers: 2, ADSCacheBlocks: 2, FailureThreshold: -1}
	q := core.Query{StartBlock: 0, EndBlock: blocks - 1, Bool: core.CNF{core.KeywordClause("tesla")}, Width: testWidth}

	var reads readBudget
	re := reopenWrapped(t, opts, target, blocks, reads.wrap)
	reads.arm(1)
	_, err := re.TimeWindowParts(context.Background(), q, false)
	if !errors.Is(err, core.ErrADSUnavailable) || !strings.Contains(err.Error(), "skip span at height 14") {
		t.Fatalf("strict query with a failed span page-in: err = %v, want ErrADSUnavailable at height 14", err)
	}

	reads.arm(1)
	parts, gaps, err := re.TimeWindowDegraded(context.Background(), q, false)
	if err != nil {
		t.Fatalf("degraded query with a failed span page-in: %v", err)
	}
	if want := []core.Gap{{Start: 12, End: 15}, {Start: 4, End: 7}}; !reflect.DeepEqual(gaps, want) {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
	ver := &core.Verifier{Acc: re.Acc(), Light: lightFor(t, re.Headers())}
	if _, err := ver.VerifyDegraded(q, parts, gaps); !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("VerifyDegraded err = %v, want ErrDegraded", err)
	}
	// Shard 0's run [8,11] is still answered by its skip ([0,3] has
	// none: its landing block would precede genesis).
	if p := parts[0]; p.Start != 8 || p.VO.Blocks[0].Skip == nil {
		t.Fatalf("part [%d,%d] is not the skip-answered span [8,11]", p.Start, p.End)
	}
}
