package shard_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/fault"
	"github.com/vchain-go/vchain/internal/shard"
)

// TestPlannerStrictFailureProvesNothing: the planner walks the window
// onto one proof run before proving any of it, on the calling
// goroutine. So a strict query whose walk fails part-way computes zero
// proofs, and no goroutine is live beside the caller when the walk
// fails.
func TestPlannerStrictFailureProvesNothing(t *testing.T) {
	// Band 4 over 2 shards: shard 1's heights [4,7] are walked first,
	// then shard 0's [0,3], whose reads fail after three page-ins. The
	// walk therefore fails at height 0 with seven blocks already planned.
	const blocks = 8
	var reads readBudget
	node := reopenWrapped(t, shard.Options{Shards: 2, Band: 4}, 0, blocks, reads.wrap)
	reads.arm(3)

	before, goroutines := node.ProofStats(), runtime.NumGoroutine()
	_, err := node.TimeWindowParts(context.Background(), sedanBenzQuery(0, blocks-1), true)
	if !errors.Is(err, fault.ErrInjected) || !errors.Is(err, core.ErrADSUnavailable) {
		t.Fatalf("strict query over a failing page-in: err = %v, want an injected ADS fault", err)
	}
	if d := node.ProofStats().Proofs - before.Proofs; d != 0 {
		t.Fatalf("failed strict query computed %d proofs, want 0", d)
	}
	if got := reads.goroutines.Load(); got > int64(goroutines) {
		t.Fatalf("%d goroutines live at the failing page-in, %d before the query: the planner started some", got, goroutines)
	}
}

// TestPlannerHonorsContextCancel checks deadline propagation from the
// caller into the planner: an already-canceled context fails the query
// without touching any shard.
func TestPlannerHonorsContextCancel(t *testing.T) {
	acc := testAcc(t)
	node := shard.New(0, testBuilder(acc), shard.Options{Shards: 2, Band: 2})
	defer node.Close()
	mineBlocks(t, node, 4)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := node.TimeWindowParts(ctx, sedanBenzQuery(0, 3), true); err == nil {
		t.Fatal("canceled context did not fail the query")
	}
}

// TestPlannerCrossBandSkipFault fails a page-in that a skip reaches
// across a band edge. With bands of 4 on 2 shards and a query no block
// matches, the distance-8 skip at shard 1's height 15 derives its
// multiset from heights 8–14, so the walk pages in shard 0's height 11
// and fails there. The degraded answer gaps exactly shard 0's heights,
// and only shard 0's breaker counts the failure.
func TestPlannerCrossBandSkipFault(t *testing.T) {
	const target, blocks = 0, 16
	opts := shard.Options{Shards: 2, Band: 4, ADSCacheBlocks: 2, FailureThreshold: 3}
	q := core.Query{StartBlock: 0, EndBlock: blocks - 1, Bool: core.CNF{core.KeywordClause("tesla")}, Width: testWidth}
	node, sched := reopenWithFaultyShard(t, opts, target, blocks)
	sched.NextFailures(fault.OpRead, 1000)

	_, err := node.TimeWindowParts(context.Background(), q, true)
	if !errors.Is(err, core.ErrADSUnavailable) || !strings.Contains(err.Error(), "skip span at height 11") {
		t.Fatalf("strict query: err = %v, want ErrADSUnavailable from the skip span at height 11", err)
	}
	if st := node.ShardStats(); st[0].Failures != 0 || st[1].Failures != 0 {
		t.Fatalf("strict failure fed a breaker: %+v", st)
	}

	parts, gaps, err := node.TimeWindowDegraded(context.Background(), q)
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	if want := []core.Gap{{Start: 8, End: 11}, {Start: 0, End: 3}}; !reflect.DeepEqual(gaps, want) {
		t.Fatalf("gaps = %v, want %v (exactly shard 0's heights)", gaps, want)
	}
	ver := &core.Verifier{Acc: node.Acc(), Light: lightFor(t, node.Headers())}
	if _, err := ver.VerifyDegraded(q, parts, gaps); !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("VerifyDegraded err = %v, want ErrDegraded", err)
	}
	if st := node.ShardStats(); st[target].Failures != 1 || st[1].Failures != 0 || st[1].Health != shard.Healthy {
		t.Fatalf("failure charged wrongly: shard 0 %+v, shard 1 %+v; want one failure on shard 0 only", st[0], st[1])
	}
}

// TestPlannerHealthyDegradedIsStrict: with every shard serving, a
// degraded read is the strict answer, and both are one part, byte for
// byte the unsharded node's VO.
func TestPlannerHealthyDegradedIsStrict(t *testing.T) {
	acc := testAcc(t)
	const blocks = 12
	mono := core.NewFullNode(0, testBuilder(acc))
	mineBlocks(t, mono, blocks)
	node := shard.New(0, testBuilder(acc), shard.Options{Shards: 2, Band: 2})
	defer node.Close()
	mineBlocks(t, node, blocks)

	q := sedanBenzQuery(1, blocks-2)
	want, err := mono.SP(true).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := node.TimeWindowParts(context.Background(), q, true)
	if err != nil {
		t.Fatal(err)
	}
	parts, gaps, err := node.TimeWindowDegraded(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(gaps) != 0 || len(parts) != 1 || len(strict) != 1 {
		t.Fatalf("strict %d part(s), degraded %d part(s) and gaps %v; want one part each, no gaps",
			len(strict), len(parts), gaps)
	}
	if len(want.Groups) == 0 {
		t.Fatal("the query aggregates no mismatch: it does not exercise batching")
	}
	enc := core.EncodeVO(acc, want)
	if !bytes.Equal(core.EncodeVO(acc, strict[0].VO), enc) || !bytes.Equal(core.EncodeVO(acc, parts[0].VO), enc) {
		t.Fatal("healthy answers differ from the unsharded batched VO")
	}
}
