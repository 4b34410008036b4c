package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vchain-go/vchain/internal/core"
)

// TestFrameRoundTrip: encode/decode symmetry, including rejection of
// trailing garbage.
func TestFrameRoundTrip(t *testing.T) {
	req := Request{Seq: 7, Kind: "query", Query: core.Query{EndBlock: 3, Bool: core.CNF{core.KeywordClause("x")}}}
	payload, err := encodeFrame(&req)
	if err != nil {
		t.Fatal(err)
	}
	if n := binary.BigEndian.Uint32(payload[:4]); int(n) != len(payload)-4 {
		t.Fatalf("prefix %d, body %d", n, len(payload)-4)
	}
	var got Request
	if err := decodeFrame(payload[4:], &got); err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.Kind != "query" || got.Query.EndBlock != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if err := decodeFrame(append(payload[4:], 0xff), &got); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestRequestRefusesBatchedFlag: bit 1 of the request flags once asked
// for online batching (§6.3), which every answer now uses. The decoder
// refuses it like any other unknown bit, as the gateway refuses the
// body's old "batched" field.
func TestRequestRefusesBatchedFlag(t *testing.T) {
	q := core.Query{EndBlock: 2, Bool: core.CNF{core.KeywordClause("tesla")}, Width: 4}
	plain, err := encodeFrame(&Request{Seq: 1, Kind: "query", Query: q})
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := encodeFrame(&Request{Seq: 1, Kind: "query", Query: q, AllowDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	at := -1
	for i := range plain {
		if plain[i] != degraded[i] {
			at = i
			break
		}
	}
	if at < 0 || degraded[at] != flagDegraded {
		t.Fatal("cannot locate the request flags byte")
	}
	for _, flags := range []byte{1, 1 | flagDegraded} {
		frame := bytes.Clone(plain)
		frame[at] = flags
		var req Request
		if err := decodeFrame(frame[framePrefixLen:], &req); err == nil {
			t.Errorf("request flags %#x accepted", flags)
		}
	}
}

// dialRaw connects to an SP without a Client and reads its hello, as
// a hand-driven peer must before the SP's answers arrive.
func dialRaw(t *testing.T, addr string) (net.Conn, *frameConn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fc := newFrameConn(conn, 0, 0)
	var h hello
	if err := fc.readFrame(&h); err != nil {
		t.Fatalf("SP hello: %v", err)
	}
	if _, err := h.codec(); err != nil {
		t.Fatalf("SP hello %+v: %v", h, err)
	}
	return conn, fc
}

// TestClientFrameCap: a response larger than the client's cap fails
// the connection with ErrFrameTooLarge instead of decoding it.
func TestClientFrameCap(t *testing.T) {
	_, addr, _ := startServer(t)
	cli, err := Dial(addr, ClientConfig{MaxFrame: 64, RPCTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Headers(context.Background(), 0) // 3 headers >> 64 bytes
	if err == nil {
		t.Fatal("oversized response accepted")
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

// TestServerFrameCap: a client announcing an oversized frame is
// dropped before any payload is decoded.
func TestServerFrameCap(t *testing.T) {
	_, addr, _ := startServer(t)
	conn, _ := dialRaw(t, addr)
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], 1<<31) // 2 GB announcement
	if _, err := conn.Write(prefix[:]); err != nil {
		t.Fatal(err)
	}
	// The server must hang up rather than try to read 2 GB.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept the connection after an oversized frame")
	}
}

// TestServerStalledFrameDeadline: once a frame starts, the peer must
// finish it within the frame timeout; a stalled half-frame gets the
// connection dropped (anti-slowloris).
func TestServerStalledFrameDeadline(t *testing.T) {
	_, node := buildCarNode(t)
	srv := NewServer(node, ServerConfig{FrameTimeout: 200 * time.Millisecond})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, _ := dialRaw(t, addr)
	if _, err := conn.Write([]byte{0x00, 0x00}); err != nil { // half a prefix, then silence
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept a connection that stalled mid-frame")
	}
}

// TestRoundTripFailFast: callers hitting a dead SP fail concurrently
// within the RPC timeout — they do not queue behind one another on a
// connection mutex held across network I/O (the old behavior).
func TestRoundTripFailFast(t *testing.T) {
	// A listener that accepts and then ignores the peer entirely.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()

	const timeout = 300 * time.Millisecond
	cli, err := Dial(ln.Addr().String(), ClientConfig{RPCTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const callers = 4
	var wg sync.WaitGroup
	errs := make([]error, callers)
	start := time.Now()
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cli.Headers(context.Background(), 0)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d succeeded against a dead SP", i)
		}
		if !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("caller %d: want timeout error, got %v", i, err)
		}
	}
	// All callers waited concurrently: total elapsed stays well under
	// callers × timeout (the serialized worst case).
	if elapsed > 2*timeout {
		t.Fatalf("callers serialized: %d concurrent timeouts took %v", callers, elapsed)
	}
}
