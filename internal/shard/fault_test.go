package shard_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/fault"
	"github.com/vchain-go/vchain/internal/shard"
	"github.com/vchain-go/vchain/internal/storage"
)

// faultyNode builds an ephemeral 4-shard node whose target shard's
// backend is fault-wrapped (the wrapper hides storage.Ephemeral, so
// commits persist through it and can be failed on demand).
func faultyNode(t *testing.T, target int) (*shard.Node, *fault.Schedule) {
	t.Helper()
	acc := testAcc(t)
	sched := fault.NewSchedule()
	node := shard.New(0, testBuilder(acc), shard.Options{
		Shards:           4,
		Band:             2,
		FailureThreshold: 3,
		BreakerCooldown:  time.Hour, // restarts only when the test says so
		WrapBackend: func(id int, b storage.Backend) storage.Backend {
			if id == target {
				return fault.WrapBackend(b, sched)
			}
			return b
		},
	})
	return node, sched
}

// advanceToShard mines healthy blocks until the next height to mine
// is owned by the target shard.
func advanceToShard(t *testing.T, node *shard.Node, target int) {
	t.Helper()
	for node.Owner(node.Height()) != target {
		h := node.Height()
		if _, err := node.MineBlock(carObjects(uint64(h*10)), int64(1000+h)); err != nil {
			t.Fatalf("advancing to shard %d at height %d: %v", target, h, err)
		}
	}
}

// mineUntilQuarantined keeps offering the same block (owned by the
// already-positioned target shard) until the shard's breaker trips,
// then verifies mining fails fast.
func mineUntilQuarantined(t *testing.T, node *shard.Node, target int) {
	t.Helper()
	if got := node.Owner(node.Height()); got != target {
		t.Fatalf("next height %d owned by shard %d, want %d (advance first)", node.Height(), got, target)
	}
	for i := 0; i < 3; i++ {
		if _, err := node.MineBlock(carObjects(9000), 99999); err == nil {
			t.Fatalf("mine attempt %d succeeded with faults armed", i)
		}
	}
	if got := node.Health(target); got != shard.Quarantined {
		t.Fatalf("shard %d health %v after threshold failures, want quarantined", target, got)
	}
	if _, err := node.MineBlock(carObjects(9000), 99999); !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("mine into quarantined shard: err = %v, want ErrShardUnavailable", err)
	}
}

// TestDegradedReadQuarantinedShard is the issue's acceptance scenario:
// with one of four shards failing, a window query spanning all shards
// returns a verified DegradedResult whose gaps are exactly the
// quarantined shard's heights — and a tampered tile in the degraded
// answer is still rejected.
func TestDegradedReadQuarantinedShard(t *testing.T) {
	const target = 2
	node, sched := faultyNode(t, target)
	defer node.Close()

	const blocks = 16 // band 2, 4 shards: shard 2 owns {4,5} and {12,13}
	mineBlocks(t, node, blocks)

	// Break shard 2's disk and trip its breaker: advance the chain to
	// its next band (heights 20-21), then fail its appends.
	advanceToShard(t, node, target)
	sched.NextFailures(fault.OpAppend, 100)
	mineUntilQuarantined(t, node, target)

	// Strict queries covering the sick shard fail fast...
	q := sedanBenzQuery(0, blocks-1)
	if _, err := node.TimeWindowParts(context.Background(), q, true); !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("strict query: err = %v, want ErrShardUnavailable", err)
	}
	// ...and ones avoiding it still work.
	safe := sedanBenzQuery(0, 3)
	if _, err := node.TimeWindowParts(context.Background(), safe, true); err != nil {
		t.Fatalf("strict query avoiding the sick shard: %v", err)
	}

	parts, gaps, err := node.TimeWindowDegraded(context.Background(), q)
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	wantGaps := []core.Gap{{Start: 12, End: 13}, {Start: 4, End: 5}}
	if !reflect.DeepEqual(gaps, wantGaps) {
		t.Fatalf("gaps = %v, want %v (exactly the quarantined shard's heights)", gaps, wantGaps)
	}

	light := lightFor(t, node.Headers())
	ver := &core.Verifier{Acc: node.Acc(), Light: light}
	res, err := ver.VerifyDegraded(q, parts, gaps)
	if !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("VerifyDegraded err = %v, want ErrDegraded", err)
	}
	if res == nil {
		t.Fatal("degraded verification returned no result")
	}
	if got, want := res.Covered(), blocks-4; got != want {
		t.Fatalf("covered %d blocks, want %d", got, want)
	}
	// Results must match the strict answer over the healthy sub-windows.
	wantObjs := 0
	for _, w := range [][2]int{{0, 3}, {6, 11}, {14, 15}} {
		sq := sedanBenzQuery(w[0], w[1])
		ps, err := node.TimeWindowParts(context.Background(), sq, true)
		if err != nil {
			t.Fatal(err)
		}
		objs, err := ver.VerifyWindowParts(sq, ps)
		if err != nil {
			t.Fatal(err)
		}
		wantObjs += len(objs)
	}
	if len(res.Objects) != wantObjs {
		t.Fatalf("degraded answer has %d objects, strict sub-windows have %d", len(res.Objects), wantObjs)
	}

	// A tampered tile must still be rejected: flip a returned object's
	// attribute inside one part's VO.
	tampered := false
	var tamper func(n *core.NodeVO)
	tamper = func(n *core.NodeVO) {
		if n == nil || tampered {
			return
		}
		if n.Kind == core.KindResult {
			n.Obj.V = []int64{4}
			tampered = true
			return
		}
		tamper(n.Left)
		tamper(n.Right)
	}
	for pi := range parts {
		for bi := range parts[pi].VO.Blocks {
			tamper(parts[pi].VO.Blocks[bi].Tree)
		}
	}
	if !tampered {
		t.Fatal("no result leaf to tamper with")
	}
	if _, err := ver.VerifyDegraded(q, parts, gaps); !errors.Is(err, core.ErrSoundness) && !errors.Is(err, core.ErrCompleteness) {
		t.Fatalf("tampered degraded tile accepted: %v", err)
	}

	// Dropping a part without declaring the gap must be rejected too.
	fresh, gaps2, err := node.TimeWindowDegraded(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ver.VerifyDegraded(q, fresh[1:], gaps2); !errors.Is(err, core.ErrCompleteness) {
		t.Fatalf("silently shrunk degraded answer accepted: %v", err)
	}
}

// TestChaosKillRestoreShard kills one shard's disk mid-workload (torn
// frame writes inside its block log), drives it into quarantine
// under concurrent queries, verifies degraded reads, heals the disk,
// lets the supervisor restart the shard from its log, and finally
// checks the recovered node answers full-window queries byte-identical
// to an unfaulted baseline. Run with -race.
func TestChaosKillRestoreShard(t *testing.T) {
	acc := testAcc(t)
	sched := fault.NewSchedule()
	opts := shard.Options{
		Shards:           4,
		Band:             1,
		FailureThreshold: 2,
		BreakerCooldown:  time.Millisecond,
		Storage:          storage.Options{Hooks: fault.LogHooks(sched)},
	}
	node, _, err := shard.Open(0, testBuilder(acc), t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// Unfaulted in-memory baseline mining the identical chain.
	baseline := shard.New(0, testBuilder(acc), shard.Options{Shards: 4, Band: 1})
	defer baseline.Close()

	const preFault = 12 // band 1: shard 0 owns 0,4,8 — and next owns 12
	mineBlocks(t, node, preFault)

	// Queries hammer the node while the fault fires and the shard
	// recovers; degraded reads must always verify.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		light := lightFor(t, node.Headers())
		ver := &core.Verifier{Acc: acc, Light: light}
		for {
			select {
			case <-stop:
				return
			default:
			}
			q := sedanBenzQuery(0, preFault-1)
			parts, gaps, err := node.TimeWindowDegraded(context.Background(), q)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := ver.VerifyDegraded(q, parts, gaps); err != nil && !errors.Is(err, core.ErrDegraded) {
				t.Errorf("concurrent degraded verification: %v", err)
				return
			}
		}
	}()

	// Tear every frame write 5 bytes in: height 12 belongs to shard 0,
	// whose next two commits fail and trip the breaker.
	sched.AddRules(fault.Rule{Op: fault.OpWrite, From: 1, To: 1000, TearAt: 5})
	for i := 0; i < 2; i++ {
		if _, err := node.MineBlock(carObjects(uint64(preFault*10)), int64(1000+preFault)); err == nil {
			t.Fatal("mine succeeded with torn writes armed")
		}
	}
	if got := node.Health(0); got != shard.Quarantined {
		t.Fatalf("shard 0 health %v, want quarantined", got)
	}

	// Degraded read during the outage: shard 0's heights gap out.
	q := sedanBenzQuery(0, preFault-1)
	_, gaps, err := node.TimeWindowDegraded(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	wantGaps := []core.Gap{{Start: 8, End: 8}, {Start: 4, End: 4}, {Start: 0, End: 0}}
	if !reflect.DeepEqual(gaps, wantGaps) {
		t.Fatalf("gaps during outage = %v, want %v", gaps, wantGaps)
	}

	// Disk comes back; the supervisor restarts the shard from its log
	// (torn tail truncated on reopen) and closes the breaker.
	sched.Heal()
	stopSupervisor := node.Supervise(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for node.Health(0) != shard.Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("shard 0 not restored, stats: %+v", node.ShardStats()[0])
		}
		time.Sleep(time.Millisecond)
	}
	stopSupervisor()
	close(stop)
	<-done

	st := node.ShardStats()[0]
	if st.Restarts != 1 || st.BreakerTrips != 1 {
		t.Fatalf("restarts/trips = %d/%d, want 1/1 (stats %+v)", st.Restarts, st.BreakerTrips, st)
	}

	// Mining resumes; grow both chains to the same height.
	const total = 16
	for h := preFault; h < total; h++ {
		if _, err := node.MineBlock(carObjects(uint64(h*10)), int64(1000+h)); err != nil {
			t.Fatalf("mining block %d after recovery: %v", h, err)
		}
	}
	mineBlocks(t, baseline, total)
	if !reflect.DeepEqual(node.Headers(), baseline.Headers()) {
		t.Fatal("recovered chain diverges from the unfaulted baseline")
	}

	// Full-window answers are byte-identical to the unfaulted run
	// (disjointness proofs are deterministic), and gaps are gone.
	fq := sedanBenzQuery(0, total-1)
	gotParts, gotGaps, err := node.TimeWindowDegraded(context.Background(), fq)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotGaps) != 0 {
		t.Fatalf("recovered node still reports gaps: %v", gotGaps)
	}
	wantParts, err := baseline.TimeWindowParts(context.Background(), fq, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotParts, wantParts) {
		t.Fatal("recovered node's window parts differ from the unfaulted baseline")
	}
	light := lightFor(t, node.Headers())
	ver := &core.Verifier{Acc: acc, Light: light}
	if _, err := ver.VerifyWindowParts(fq, gotParts); err != nil {
		t.Fatalf("post-recovery verification: %v", err)
	}
}

// TestRestartShardEphemeral checks the in-memory recovery path: an
// ephemeral shard has no log, so a restart just closes the breaker
// (its ADSs never left RAM — commit fails before touching state).
func TestRestartShardEphemeral(t *testing.T) {
	const target = 1
	node, sched := faultyNode(t, target)
	defer node.Close()
	mineBlocks(t, node, 4)
	advanceToShard(t, node, target)

	sched.NextFailures(fault.OpAppend, 100)
	mineUntilQuarantined(t, node, target)
	sched.Heal()

	if err := node.RestartShard(target); err != nil {
		t.Fatalf("ephemeral restart: %v", err)
	}
	if got := node.Health(target); got != shard.Healthy {
		t.Fatalf("health %v after restart, want healthy", got)
	}
	// Mining resumes through the restored shard: a full ownership cycle
	// commits to every shard, including the target.
	before := node.Height()
	for h := before; h < before+8; h++ {
		if _, err := node.MineBlock(carObjects(uint64(h*10)), int64(1000+h)); err != nil {
			t.Fatalf("mining block %d after restart: %v", h, err)
		}
	}
	if got := node.Height(); got != before+8 {
		t.Fatalf("height %d, want %d", got, before+8)
	}
}
