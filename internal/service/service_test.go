package service

import (
	"context"
	"strings"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
)

// buildCarNode mines the 3-block car chain shared by the request
// tests.
func buildCarNode(t *testing.T) (accumulator.Accumulator, *core.FullNode) {
	t.Helper()
	acc := accumulator.KeyGenCon2Deterministic(pairing.Toy(), 512, accumulator.HashEncoder{Q: 512}, []byte("svc"))
	b := &core.Builder{Acc: acc, Mode: core.ModeIntra, Width: 4}
	node := core.NewFullNode(0, b)
	for i := 0; i < 3; i++ {
		objs := []chain.Object{
			{ID: chain.ObjectID(i*10 + 1), TS: int64(i), V: []int64{4}, W: []string{"sedan", "benz"}},
			{ID: chain.ObjectID(i*10 + 2), TS: int64(i), V: []int64{9}, W: []string{"van", "audi"}},
		}
		if _, err := node.MineBlock(objs, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return acc, node
}

func startServer(t *testing.T) (*Server, string, accumulator.Accumulator) {
	t.Helper()
	acc, node := buildCarNode(t)
	srv := NewServer(node)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, acc
}

// queryVO runs a remote query and returns its answer's single part,
// which must span the whole window.
func queryVO(t *testing.T, cli *Client, q core.Query) *core.VO {
	t.Helper()
	parts, err := cli.QueryParts(context.Background(), q, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || parts[0].Start != q.StartBlock || parts[0].End != q.EndBlock {
		t.Fatalf("answer in %d part(s), want one spanning [%d,%d]", len(parts), q.StartBlock, q.EndBlock)
	}
	return parts[0].VO
}

func TestRemoteQueryAndVerify(t *testing.T) {
	_, addr, acc := startServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	headers, err := cli.Headers(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(headers) != 3 {
		t.Fatalf("headers %d", len(headers))
	}
	light := chain.NewLightStore(0)
	if err := light.Sync(headers); err != nil {
		t.Fatal(err)
	}

	q := core.Query{StartBlock: 0, EndBlock: 2, Bool: core.CNF{core.KeywordClause("sedan")}, Width: 4}
	vo := queryVO(t, cli, q)
	results, err := (&core.Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
	if err != nil {
		t.Fatalf("remote VO failed verification: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("results %d, want 3", len(results))
	}
}

func TestRemoteBatchedQuery(t *testing.T) {
	_, addr, acc := startServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	headers, _ := cli.Headers(context.Background(), 0)
	light := chain.NewLightStore(0)
	if err := light.Sync(headers); err != nil {
		t.Fatal(err)
	}
	q := core.Query{StartBlock: 0, EndBlock: 2, Bool: core.CNF{core.KeywordClause("tesla")}, Width: 4}
	vo := queryVO(t, cli, q)
	if len(vo.Groups) == 0 {
		t.Error("batched query produced no groups")
	}
	if _, err := (&core.Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalHeaderSync(t *testing.T) {
	_, addr, _ := startServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	h, err := cli.Headers(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 1 || h[0].Height != 2 {
		t.Fatalf("incremental sync wrong: %d headers", len(h))
	}
	if _, err := cli.Headers(context.Background(), 99); err == nil {
		t.Error("out-of-range FromHeight accepted")
	}
	if _, err := cli.Headers(context.Background(), -1); err == nil {
		t.Error("negative FromHeight accepted")
	}
}

// TestSyncHeadersPagination: header sync loops over the server's
// bounded batches, so a chain of any length syncs without ever
// approaching the frame cap.
func TestSyncHeadersPagination(t *testing.T) {
	old := maxHeaderBatch
	maxHeaderBatch = 2
	defer func() { maxHeaderBatch = old }()
	_, addr, _ := startServer(t) // 3 blocks > one 2-header batch
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
	// Already caught up: another sync is a no-op.
	if err := cli.SyncHeaders(context.Background(), light); err != nil {
		t.Fatal(err)
	}
}

func TestServerErrors(t *testing.T) {
	_, addr, _ := startServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Invalid query window.
	q := core.Query{StartBlock: 5, EndBlock: 1, Bool: core.CNF{core.KeywordClause("x")}, Width: 4}
	if _, err := cli.QueryParts(context.Background(), q, true); err == nil || !strings.Contains(err.Error(), "SP error") {
		t.Errorf("invalid window: %v", err)
	}
	// Unknown request kind.
	resp, _, err := cli.roundTrip(context.Background(), &Request{Kind: "bogus"})
	if err == nil {
		t.Errorf("unknown kind accepted: %+v", resp)
	}
}

func TestMultipleClients(t *testing.T) {
	_, addr, _ := startServer(t)
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			cli, err := Dial(addr)
			if err != nil {
				done <- err
				return
			}
			defer cli.Close()
			_, err = cli.Headers(context.Background(), 0)
			done <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRemoteSkipVOOverWire(t *testing.T) {
	// ModeBoth VOs contain skip entries (maps, digests, proofs): they
	// must survive the wire codec and verify at the remote client.
	acc := accumulator.KeyGenCon2Deterministic(pairing.Toy(), 512, accumulator.HashEncoder{Q: 512}, []byte("svc2"))
	b := &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: 2, Width: 4}
	node := core.NewFullNode(0, b)
	for i := 0; i < 8; i++ {
		objs := []chain.Object{
			{ID: chain.ObjectID(i*10 + 1), TS: int64(i), V: []int64{4}, W: []string{"van", "audi"}},
		}
		if _, err := node.MineBlock(objs, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(node)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	headers, err := cli.Headers(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	light := chain.NewLightStore(0)
	if err := light.Sync(headers); err != nil {
		t.Fatal(err)
	}
	q := core.Query{StartBlock: 0, EndBlock: 7, Bool: core.CNF{core.KeywordClause("tesla")}, Width: 4}
	vo := queryVO(t, cli, q)
	hasSkip := false
	for i := range vo.Blocks {
		if vo.Blocks[i].Skip != nil {
			hasSkip = true
		}
	}
	if !hasSkip {
		t.Fatal("expected a skip in the remote VO")
	}
	res, err := (&core.Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
	if err != nil {
		t.Fatalf("remote skip VO rejected: %v", err)
	}
	if len(res) != 0 {
		t.Fatal("phantom results")
	}
}

func TestServerCloseStopsAccepting(t *testing.T) {
	srv, addr, _ := startServer(t)
	srv.Close()
	if _, err := Dial(addr); err == nil {
		// Dial may race the close; a successful dial must at least fail
		// on the first request.
		cli, _ := Dial(addr)
		if cli != nil {
			if _, err := cli.Headers(context.Background(), 0); err == nil {
				t.Error("closed server answered")
			}
		}
	}
}
