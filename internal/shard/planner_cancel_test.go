package shard_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/fault"
	"github.com/vchain-go/vchain/internal/shard"
)

// TestPlannerCancelsSiblingsOnError is the regression test for the
// fan-out goroutine leak: when one shard's span fails early, the
// planner must cancel the derived context so sibling goroutines abort
// at their next per-block check instead of proving the rest of their
// spans for nobody. Run with -race.
func TestPlannerCancelsSiblingsOnError(t *testing.T) {
	// Shard 1 owns every odd height; breaking its reads after a lazy
	// reopen makes its goroutine fail on the very first block of the
	// walk, while shard 0 still owes 12 single-block spans.
	const blocks = 24
	node, sched := reopenWithFaultyShard(t, shard.Options{Shards: 2, Band: 1, Workers: 2}, 1, blocks)
	sched.NextFailures(fault.OpRead, 1000)

	before := runtime.NumGoroutine()
	q := sedanBenzQuery(0, blocks-1)
	if _, err := node.TimeWindowParts(context.Background(), q, false); err == nil {
		t.Fatal("query over an unreadable shard succeeded")
	} else if !errors.Is(err, fault.ErrInjected) || !errors.Is(err, core.ErrADSUnavailable) {
		t.Fatalf("unexpected error: %v", err)
	}

	// Every fan-out goroutine must be gone shortly after the call
	// returns (wg.Wait drains them; cancellation makes the drain fast).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("fan-out goroutines leaked: %d live, %d before the query",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPlannerHonorsContextCancel checks deadline propagation from the
// caller through the fan-out: an already-canceled context fails the
// query without touching any shard.
func TestPlannerHonorsContextCancel(t *testing.T) {
	acc := testAcc(t)
	node := shard.New(0, testBuilder(acc), shard.Options{Shards: 2, Band: 2, Workers: 2})
	defer node.Close()
	mineBlocks(t, node, 4)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := node.TimeWindowParts(ctx, sedanBenzQuery(0, 3), false); err == nil {
		t.Fatal("canceled context did not fail the query")
	}
}
