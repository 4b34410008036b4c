package service

import (
	"context"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/shard"
)

// TestServerOverReopenedStore is the SP-restart scenario end to end: a
// node mines into a durable store and dies; a fresh process
// reopens the directory and serves remote queries AND the ProcessBlock
// subscription fan-out from the persisted state, without rebuilding
// any ADS.
func TestServerOverReopenedStore(t *testing.T) {
	acc := accumulator.KeyGenCon2Deterministic(pairing.Toy(), 512, accumulator.HashEncoder{Q: 512}, []byte("restart"))
	b := &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: 2, Width: 4}
	dir := t.TempDir()

	node, _, err := shard.Open(0, b, dir, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := node.MineBlock(block(i*10+1, "sedan", "benz"), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new node over the same directory.
	re, _, err := shard.Open(0, b, dir, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.SetupStats.Blocks != 0 {
		t.Fatalf("restart rebuilt %d ADSs", re.SetupStats.Blocks)
	}
	srv := NewServer(re)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	light := chain.NewLightStore(0)
	if err := cli.SyncHeaders(context.Background(), light); err != nil {
		t.Fatal(err)
	}
	if light.Height() != 3 {
		t.Fatalf("synced %d headers, want 3", light.Height())
	}

	// Remote verified query over the persisted chain.
	q := sedanQuery()
	q.StartBlock, q.EndBlock = 0, 2
	results, err := (&core.Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, queryVO(t, cli, q))
	if err != nil {
		t.Fatalf("reopened SP's VO rejected: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("results %d, want 3", len(results))
	}

	// Subscription fan-out keeps working on the mining path: blocks
	// mined after the restart reach remote subscribers (and land in
	// the store).
	sub, err := cli.SubscribeCtx(context.Background(), sedanQuery(), SubscribeConfig{Acc: acc, Light: light})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.MineBlock(block(41, "sedan"), 3); err != nil {
		t.Fatal(err)
	}
	if err := srv.ProcessBlock(3); err != nil {
		t.Fatal(err)
	}
	d := recv(t, sub)
	if d.Err != nil {
		t.Fatalf("post-restart publication failed verification: %v", d.Err)
	}
	if len(d.Objects) != 1 || int(d.Objects[0].ID) != 41 {
		t.Fatalf("post-restart publication delivered %v", d.Objects)
	}
	re.Close()
	again, rep, err := shard.Open(0, b, dir, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if got := rep.Shards[0].Log.Records; got != 4 {
		t.Fatalf("store has %d records, want 4", got)
	}
}
