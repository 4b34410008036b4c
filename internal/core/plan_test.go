package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/fault"
	"github.com/vchain-go/vchain/internal/storage"
)

// TestPlannerBareNodeDegradedGap: a bare node (one slot, no Guard)
// whose backend fails every page-in answers a degraded read with the
// whole window as one verified gap, while the strict read fails with
// ErrADSUnavailable before proving anything. Once the disk heals the
// degraded read is one part again.
func TestPlannerBareNodeDegradedGap(t *testing.T) {
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth}
	sched := fault.NewSchedule()
	node, err := NewFullNodeOn(0, b, fault.WrapBackend(storage.NewMemory(), sched), WithADSCache(1))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	const blocks = 6
	for i := 0; i < blocks; i++ {
		if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	light := chain.NewLightStore(0)
	if err := light.Sync(node.Headers()); err != nil {
		t.Fatal(err)
	}
	ver := &Verifier{Acc: acc, Light: light}
	ctx, q := context.Background(), sedanBenzQuery(0, blocks-1)

	sched.NextFailures(fault.OpRead, 1000)
	before := node.ProofStats()
	if _, err := node.TimeWindowParts(ctx, q, true); !errors.Is(err, ErrADSUnavailable) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("strict read over a failing disk: err = %v, want an injected ErrADSUnavailable", err)
	}
	if d := node.ProofStats().Proofs - before.Proofs; d != 0 {
		t.Fatalf("failed strict read computed %d proofs, want 0", d)
	}

	parts, gaps, err := node.TimeWindowDegraded(ctx, q)
	if err != nil {
		t.Fatalf("degraded read over a failing disk: %v", err)
	}
	if want := []Gap{{Start: 0, End: blocks - 1}}; len(parts) != 0 || !reflect.DeepEqual(gaps, want) {
		t.Fatalf("degraded read: %d parts, gaps %v; want no parts, gaps %v", len(parts), gaps, want)
	}
	res, err := ver.VerifyDegraded(q, parts, gaps)
	if !errors.Is(err, ErrDegraded) || res.Covered() != 0 {
		t.Fatalf("VerifyDegraded: err = %v, want ErrDegraded over nothing covered", err)
	}

	sched.Heal()
	parts, gaps, err = node.TimeWindowDegraded(ctx, q)
	if err != nil || len(gaps) != 0 || len(parts) != 1 {
		t.Fatalf("healed degraded read: %d parts, gaps %v, err %v; want one part", len(parts), gaps, err)
	}
	if _, err := ver.VerifyDegraded(q, parts, gaps); err != nil {
		t.Fatalf("healed degraded read rejected: %v", err)
	}
}
