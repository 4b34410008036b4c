package shard_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/fault"
	"github.com/vchain-go/vchain/internal/shard"
)

// TestPlannerStrictFailureProvesNothing: the planner walks every span
// onto one proof run before proving any of it, on the calling
// goroutine. So a strict query whose walk fails part-way computes zero
// proofs, and no goroutine is live beside the caller when the walk
// fails.
func TestPlannerStrictFailureProvesNothing(t *testing.T) {
	// Band 4 over 2 shards: shard 1's span [4,7] is walked first, then
	// shard 0's [0,3], whose reads fail after three page-ins. The walk
	// therefore fails at height 0 with seven blocks already planned.
	const blocks = 8
	var reads readBudget
	node := reopenWrapped(t, shard.Options{Shards: 2, Band: 4, Workers: 2}, 0, blocks, reads.wrap)
	reads.arm(3)

	before, goroutines := node.ProofStats(), runtime.NumGoroutine()
	_, err := node.TimeWindowParts(context.Background(), sedanBenzQuery(0, blocks-1), false)
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
	node := shard.New(0, testBuilder(acc), shard.Options{Shards: 2, Band: 2, Workers: 2})
	defer node.Close()
	mineBlocks(t, node, 4)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := node.TimeWindowParts(ctx, sedanBenzQuery(0, 3), false); err == nil {
		t.Fatal("canceled context did not fail the query")
	}
}
