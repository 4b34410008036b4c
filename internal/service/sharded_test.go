package service

import (
	"bytes"
	"context"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/shard"
)

// startShardedServer serves a 2-shard node whose bands are small enough
// that any multi-block window crosses a shard boundary.
func startShardedServer(t *testing.T) (string, accumulator.Accumulator) {
	t.Helper()
	acc := accumulator.KeyGenCon2Deterministic(pairing.Toy(), 512, accumulator.HashEncoder{Q: 512}, []byte("svc"))
	node := shard.New(0, shardedBuilder(acc), shard.Options{Shards: 2, Band: 1})
	mineSharded(t, node)
	srv := NewServer(node)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); node.Close() })
	return addr, acc
}

func shardedBuilder(acc accumulator.Accumulator) *core.Builder {
	return &core.Builder{Acc: acc, Mode: core.ModeIntra, Width: 4}
}

// mineSharded mines the fixture's four blocks into node.
func mineSharded(t *testing.T, node interface {
	MineBlock([]chain.Object, int64) (*chain.Block, error)
}) {
	t.Helper()
	for i := 0; i < 4; i++ {
		objs := []chain.Object{
			{ID: chain.ObjectID(i*10 + 1), TS: int64(i), V: []int64{4}, W: []string{"sedan", "benz"}},
			{ID: chain.ObjectID(i*10 + 2), TS: int64(i), V: []int64{9}, W: []string{"van", "audi"}},
		}
		if _, err := node.MineBlock(objs, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func shardedLight(t *testing.T, cli *Client) *chain.LightStore {
	t.Helper()
	headers, err := cli.Headers(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	light := chain.NewLightStore(0)
	if err := light.Sync(headers); err != nil {
		t.Fatal(err)
	}
	return light
}

// TestRemoteShardedQueryParts round-trips a cross-shard window over the
// wire: the response is one part whose VO encodes byte for byte as an
// unsharded node's, and it verifies client-side.
func TestRemoteShardedQueryParts(t *testing.T) {
	addr, acc := startShardedServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	light := shardedLight(t, cli)

	q := core.Query{StartBlock: 0, EndBlock: 3, Bool: core.CNF{core.KeywordClause("sedan")}, Width: 4}
	vo := queryVO(t, cli, q)
	mono := core.NewFullNode(0, shardedBuilder(acc))
	mineSharded(t, mono)
	want, err := mono.SP(true).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(core.EncodeVO(acc, vo), core.EncodeVO(acc, want)) {
		t.Fatal("cross-shard answer over the wire differs from the unsharded node's VO")
	}
	results, err := (&core.Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
	if err != nil {
		t.Fatalf("remote sharded VO failed verification: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("results %d, want 4", len(results))
	}
}

// TestRemoteShardedSingleShardWindow checks that a window inside one
// shard band comes back as one part spanning it, exactly as from an
// unsharded SP.
func TestRemoteShardedSingleShardWindow(t *testing.T) {
	addr, acc := startShardedServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	light := shardedLight(t, cli)

	q := core.Query{StartBlock: 2, EndBlock: 2, Bool: core.CNF{core.KeywordClause("sedan")}, Width: 4}
	if _, err := (&core.Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, queryVO(t, cli, q)); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteShardedQueryVerified uses the one-call verified path
// (QueryParts + VerifyWindowParts under the hood) with batched proofs.
func TestRemoteShardedQueryVerified(t *testing.T) {
	addr, acc := startShardedServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	light := shardedLight(t, cli)

	q := core.Query{StartBlock: 0, EndBlock: 3, Bool: core.CNF{core.KeywordClause("sedan")}, Width: 4}
	results, err := cli.QueryVerified(context.Background(), q, true, &core.Verifier{Acc: acc, Light: light})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results %d, want 4", len(results))
	}
}
