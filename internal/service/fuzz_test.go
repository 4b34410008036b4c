package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/shard"
)

// memConn is a net.Conn reading from a fixed byte stream (what a
// malicious peer sent) and discarding writes.
type memConn struct{ r *bytes.Reader }

func (m *memConn) Read(p []byte) (int, error)  { return m.r.Read(p) }
func (m *memConn) Write(p []byte) (int, error) { return len(p), nil }
func (m *memConn) Close() error                { return nil }
func (m *memConn) LocalAddr() net.Addr         { return &net.TCPAddr{} }
func (m *memConn) RemoteAddr() net.Addr        { return &net.TCPAddr{} }
func (m *memConn) SetDeadline(time.Time) error { return nil }
func (m *memConn) SetReadDeadline(t time.Time) error {
	return nil
}
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzFrameDecode drives the frame reader and the binary codec with
// arbitrary peer bytes, as the SP reads them (requests) and as the
// client does (hello, responses, pushes). Decoding must never panic,
// never allocate beyond the frame cap, and reject announced lengths
// over the cap before reading the body; and a frame that decodes
// re-encodes to the identical bytes, so the codec has one encoding
// per message.
func FuzzFrameDecode(f *testing.F) {
	for _, seed := range realFrames(f) {
		f.Add(seed)
	}
	huge := make([]byte, 4)
	binary.BigEndian.PutUint32(huge, 1<<31)
	f.Add(huge)
	f.Add([]byte{0, 0, 0, 9, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		const cap = 1 << 16
		// Drain the stream as the server would: frames until error.
		fc := newFrameConn(&memConn{r: bytes.NewReader(data)}, cap, time.Second)
		for i := 0; i < 8; i++ {
			body, err := fc.readBody()
			if err != nil {
				break
			}
			var req Request
			if decodeFrame(body, &req) == nil {
				reencodes(t, &req, body)
			}
		}
		// And as the client would.
		fc = newFrameConn(&memConn{r: bytes.NewReader(data)}, cap, time.Second)
		for i := 0; i < 8; i++ {
			body, err := fc.readBody()
			if err != nil {
				break
			}
			if m, err := decodeServerFrame(body); err == nil {
				reencodes(t, m, body)
			}
		}
	})
}

// reencodes checks that a decoded message encodes to the payload it
// was decoded from.
func reencodes(t *testing.T, m message, body []byte) {
	t.Helper()
	frame, err := encodeFrame(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame[framePrefixLen:], body) {
		t.Fatalf("%s frame re-encodes to other bytes:\n got %x\nwant %x", kindName(body[0]), frame[framePrefixLen:], body)
	}
}

// realFrames returns frames an SP and a client exchange: a hello, a
// headers request and page, a strict and a degraded answer, a push and
// an unsubscribe flush.
func realFrames(tb testing.TB) [][]byte {
	acc := accumulator.KeyGenCon2Deterministic(pairing.Toy(), 512, accumulator.HashEncoder{Q: 512}, []byte("svc"))
	node := shard.New(0, &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: 2, Width: 4}, shard.Options{Shards: 2, Band: 1, Workers: 2})
	defer node.Close()
	for i := 0; i < 4; i++ {
		objs := []chain.Object{
			{ID: chain.ObjectID(i*10 + 1), TS: int64(i), V: []int64{4}, W: []string{"sedan", "benz"}},
			{ID: chain.ObjectID(i*10 + 2), TS: int64(i), V: []int64{9}, W: []string{"van", "audi"}},
		}
		if _, err := node.MineBlock(objs, int64(i)); err != nil {
			tb.Fatal(err)
		}
	}
	srv := NewServer(node)
	q := core.Query{EndBlock: 3, Bool: core.CNF{core.KeywordClause("sedan")}, Width: 4}
	strict, err := node.TimeWindowParts(context.Background(), q, false)
	if err != nil {
		tb.Fatal(err)
	}
	headers, _, err := HeaderPage(node, 0, 4)
	if err != nil {
		tb.Fatal(err)
	}
	id, err := srv.engine.Register(q)
	if err != nil {
		tb.Fatal(err)
	}
	ads, err := node.ADSAt(2)
	if err != nil {
		tb.Fatal(err)
	}
	pubs, err := srv.engine.ProcessBlock(ads, node)
	if err != nil || len(pubs) != 1 || pubs[0].QueryID != id {
		tb.Fatalf("publications %v, %v; want one for subscription %d", pubs, err, id)
	}
	pub := &pubs[0]
	if err := node.Quarantine(1, errors.New("fuzz seed: shard fenced")); err != nil {
		tb.Fatal(err)
	}
	parts, gaps, err := node.TimeWindowDegraded(context.Background(), q, true)
	if err != nil || len(gaps) == 0 {
		tb.Fatalf("degraded answer with gaps %v: %v", gaps, err)
	}
	msgs := []message{
		&hello{Version: protocolVersion, Construction: acc.Name(), Preset: "toy"},
		&Request{Seq: 1, Kind: "headers", DeadlineMs: 30000},
		&Request{Seq: 2, Kind: "query", Query: q, AllowDegraded: true, DeadlineMs: 5000},
		&Response{Seq: 1, Headers: headers},
		&Response{Seq: 2, Parts: srv.wireParts(strict)},
		&Response{Seq: 3, Parts: srv.wireParts(parts), Gaps: gaps},
		srv.push(pub),
		&Response{Seq: 4, SubID: id, Pub: srv.push(pub)},
	}
	out := make([][]byte, len(msgs))
	for i, m := range msgs {
		if out[i], err = encodeFrame(m); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// TestFrameDecoderBoundedAllocation: an announced length just under
// the cap with no body behind it must fail on the missing body, not
// hang; an announced length over the cap must fail before any body
// read (io.ReadFull on the body would block forever on a silent
// conn — the error path proves we never got there).
func TestFrameDecoderBoundedAllocation(t *testing.T) {
	var over [4]byte
	binary.BigEndian.PutUint32(over[:], DefaultMaxFrame+1)
	fc := newFrameConn(&memConn{r: bytes.NewReader(over[:])}, 0, time.Second)
	var req Request
	err := fc.readFrame(&req)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("cap")) {
		t.Fatalf("oversized announcement: %v", err)
	}

	var under [4]byte
	binary.BigEndian.PutUint32(under[:], 128)
	fc = newFrameConn(&memConn{r: bytes.NewReader(under[:])}, 0, time.Second)
	if err := fc.readFrame(&req); err == nil {
		t.Fatal("truncated body accepted")
	}
}

var _ io.Reader = (*memConn)(nil)
