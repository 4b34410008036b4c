package service

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
)

// buildLongNode mines a chain long enough that its full header list
// cannot fit one small frame.
func buildLongNode(t *testing.T, blocks int) *core.FullNode {
	t.Helper()
	acc := accumulator.KeyGenCon2Deterministic(pairing.Toy(), 512, accumulator.HashEncoder{Q: 512}, []byte("svc-long"))
	b := &core.Builder{Acc: acc, Mode: core.ModeIntra, Width: 4}
	node := core.NewFullNode(0, b)
	for i := 0; i < blocks; i++ {
		objs := []chain.Object{{ID: chain.ObjectID(i + 1), TS: int64(i), V: []int64{4}, W: []string{"sedan"}}}
		if _, err := node.MineBlock(objs, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return node
}

// TestHeaderBatchDerivedFromFrameCap: a server configured with a small
// MaxFrame must shrink its header batches to fit the cap. Before the
// fix the batch size was a hard-coded 2048, so the oversized headers
// reply was degraded to an error response and SyncHeaders failed
// instead of looping over smaller batches.
func TestHeaderBatchDerivedFromFrameCap(t *testing.T) {
	const blocks = 48
	const frameCap = 4096 // fits ~16 headers, not 48
	node := buildLongNode(t, blocks)
	srv := NewServer(node, ServerConfig{MaxFrame: frameCap})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(addr, ClientConfig{MaxFrame: frameCap})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	batch, err := cli.Headers(context.Background(), 0)
	if err != nil {
		t.Fatalf("headers request against a small-MaxFrame server: %v", err)
	}
	// A header is exactly its 120-byte PoW preimage; a headers
	// response spends 35 more bytes on its envelope: (4096-35)/120.
	const want = 33
	if got := (ServerConfig{MaxFrame: frameCap}).headerBatch(); got != want {
		t.Fatalf("headerBatch() = %d, want %d", got, want)
	}
	if frame, _ := encodeFrame(&Response{Seq: 1 << 60, Headers: batch}); len(frame)-framePrefixLen > frameCap {
		t.Fatalf("a full batch is a %d-byte frame, over the %d-byte cap", len(frame)-framePrefixLen, frameCap)
	}
	if len(batch) != want {
		t.Fatalf("batch size %d, want %d (derived from the %d-byte frame cap)", len(batch), want, frameCap)
	}

	light := chain.NewLightStore(0)
	if err := cli.SyncHeaders(context.Background(), light); err != nil {
		t.Fatalf("SyncHeaders wedged under a small frame cap: %v", err)
	}
	if light.Height() != blocks {
		t.Fatalf("synced %d headers, want %d", light.Height(), blocks)
	}
}

// TestHeaderBatchFloorAndCeiling pins the derivation bounds: a frame
// cap below one header's estimate still sends one header per batch,
// and a huge cap never exceeds the maxHeaderBatch ceiling.
func TestHeaderBatchFloorAndCeiling(t *testing.T) {
	if got := (ServerConfig{MaxFrame: 64}).headerBatch(); got != 1 {
		t.Errorf("tiny cap batch = %d, want 1", got)
	}
	if got := (ServerConfig{MaxFrame: 1 << 30}).headerBatch(); got != maxHeaderBatch {
		t.Errorf("huge cap batch = %d, want ceiling %d", got, maxHeaderBatch)
	}
	// The default 4MB cap fits far more than the ceiling allows.
	if got := (ServerConfig{}).headerBatch(); got != maxHeaderBatch {
		t.Errorf("default cap batch = %d, want ceiling %d", got, maxHeaderBatch)
	}
}

// TestDeadlineClampedClientSide: a sub-millisecond remaining budget
// must serialize as DeadlineMs == 1, not truncate to the degenerate 0
// the server would have read as "no deadline". The fake SP records
// what actually crossed the wire.
func TestDeadlineClampedClientSide(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	got := make(chan int64, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fc := newFrameConn(conn, 0, 0)
		fc.writeFrame(&hello{Version: protocolVersion, Construction: "acc2", Preset: "toy"})
		var req Request
		if err := fc.readFrame(&req); err != nil {
			return
		}
		got <- req.DeadlineMs
		fc.writeFrame(&Response{Seq: req.Seq, Err: "recorded"})
	}()

	// An RPC budget of 500µs truncates to 0 whole milliseconds: the
	// pre-fix client serialized exactly that.
	cli, err := Dial(ln.Addr().String(), ClientConfig{RPCTimeout: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	q := core.Query{EndBlock: 1, Bool: core.CNF{core.KeywordClause("x")}, Width: 4}
	cli.QueryParts(context.Background(), q, false) // outcome irrelevant; the wire capture is the assertion

	select {
	case ms := <-got:
		if ms != 1 {
			t.Fatalf("near-expired budget serialized DeadlineMs=%d, want clamp to 1", ms)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fake SP never received the query")
	}
}

// TestServerRejectsNonPositiveDeadline: a query frame carrying a zero
// or negative DeadlineMs is answered with a typed SP error instead of
// being granted an unbounded proof walk.
func TestServerRejectsNonPositiveDeadline(t *testing.T) {
	_, addr, _ := startServer(t)
	_, fc := dialRaw(t, addr)

	q := core.Query{StartBlock: 0, EndBlock: 2, Bool: core.CNF{core.KeywordClause("sedan")}, Width: 4}
	for i, ms := range []int64{0, -5} {
		req := Request{Seq: uint64(i + 1), Kind: "query", Query: q, DeadlineMs: ms}
		if err := fc.writeFrame(&req); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := fc.readFrame(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Err == "" {
			t.Fatalf("DeadlineMs=%d accepted; want a typed SP error", ms)
		}
		if !strings.Contains(resp.Err, "DeadlineMs") {
			t.Fatalf("DeadlineMs=%d rejected with unrelated error %q", ms, resp.Err)
		}
	}

	// A positive budget still works end to end.
	req := Request{Seq: 9, Kind: "query", Query: q, DeadlineMs: 5000}
	if err := fc.writeFrame(&req); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := fc.readFrame(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatalf("positive deadline rejected: %s", resp.Err)
	}
	if len(resp.Parts) == 0 {
		t.Fatal("positive-deadline query returned no parts")
	}
}
