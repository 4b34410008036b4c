package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/multiset"
	"github.com/vchain-go/vchain/internal/service"
	"github.com/vchain-go/vchain/internal/storage"
)

// Span names. Every span is recorded by this package around a call
// into a layer: the decorators below sit on the seams the program
// already exposes (accumulator.Accumulator, storage.Backend +
// storage.Hooks, service.Chain, ClientConfig.Dialer), and the workload
// loops time their own calls into clients, verifiers and codecs.
const (
	spanGobRTT      = "service.rtt"              // client QueryParts round trip
	spanHTTPRTT     = "gateway.rtt"              // POST /v1/query until the body is read
	spanSP          = "core.sp"                  // Chain.TimeWindowParts, as the front end calls it
	spanProve       = "accumulator.prove"        // ProveDisjoint
	spanVerifyBatch = "accumulator.verify_batch" // VerifyDisjointBatch
	spanVerifyOne   = "accumulator.verify"       // VerifyDisjoint
	spanAccSetup    = "accumulator.setup"        // Setup
	spanAccSum      = "accumulator.sum"          // Sum and ProofSum
	spanRead        = "storage.read"             // Backend.Read
	spanAppend      = "storage.append"           // Backend.Append
	spanFsync       = "storage.fsync"            // Hooks.Sync until Append returns
	spanBodyDecode  = "gateway.body_decode"      // JSON + base64 of an HTTP answer
	spanVODecode    = "core.vo_decode"           // core.DecodeVO
	spanVOEncode    = "core.vo_encode"           // core.EncodeVO (replayed after the answer)
	spanVerify      = "core.verify"              // Verifier.VerifyWindowParts
	spanMine        = "core.mine"                // MineBlock
	spanRecEncode   = "core.record_encode"       // EncodeChainRecord (replayed)
	spanRecDecode   = "core.record_decode"       // DecodeChainRecordADS (replayed per page-in)
	spanADSVerify   = "core.ads_verify"          // VerifyADSCommitments (replayed per page-in)
	spanProcess     = "subscribe.process"        // Server.ProcessBlock
	spanPubVerify   = "subscribe.client_verify"  // VerifyPublication (replayed per delivery)
	spanReopen      = "storage.reopen"           // storage.Open + NewFullNodeOn over a full log
)

// parents is the span that causes each span, by name, on the given
// workload. Spans nest by time within one operation, so the name is
// enough to find the parent.
func parents(workload string) map[string]string {
	p := map[string]string{
		spanSP:          spanGobRTT,
		spanProve:       spanSP,
		spanRead:        spanSP,
		spanRecDecode:   spanRead,
		spanADSVerify:   spanRead,
		spanVerifyBatch: spanVerify,
		spanVerifyOne:   spanVerify,
		spanAccSetup:    spanVerify,
		spanAccSum:      spanMine,
		spanAppend:      spanMine,
		spanFsync:       spanAppend,
		spanRecEncode:   spanMine,
	}
	switch workload {
	case "http_hot":
		p[spanSP] = spanHTTPRTT
	case "mine_durable", "sub_stream":
		p[spanAccSetup] = spanMine // the miner's digests, not a verifier's
	}
	return p
}

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	// Op is the operation the span belongs to, 0 when it cannot be
	// told (server-side spans while two clients are in flight).
	Op    int   `json:"op"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// N is what the call handled: checks in a batch, bytes read.
	N int `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer is an
// untraced run: no decorator is installed at all. In a traced run the
// decorators stay installed and on flips between operations, so the
// same run measures operations with and without recording.
type tracer struct {
	on      atomic.Bool
	op      atomic.Int64
	epoch   time.Time
	parents map[string]string

	mu    sync.Mutex
	spans map[string][]span // by name
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), parents: parents(workload), spans: map[string][]span{}}
}

// begin returns the span's start, or -1 when recording is off.
func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	return int64(time.Since(t.epoch))
}

// end records a span begun with begin, for the operation in flight.
func (t *tracer) end(name string, start int64, n int) {
	if start < 0 {
		return
	}
	t.endOp(name, start, n, int(t.op.Load()))
}

// endOp records a span for an operation the caller knows.
func (t *tracer) endOp(name string, start int64, n, op int) {
	if start < 0 {
		return
	}
	s := span{Name: name, Parent: t.parents[name], Op: op, Start: start, End: int64(time.Since(t.epoch)), N: n}
	t.mu.Lock()
	t.spans[name] = append(t.spans[name], s)
	t.mu.Unlock()
}

// named returns the recorded spans of the given names (all spans when
// none is given), by start time.
func (t *tracer) named(names ...string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	if len(names) == 0 {
		for _, spans := range t.spans {
			out = append(out, spans...)
		}
	}
	for _, n := range names {
		out = append(out, t.spans[n]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// total is the summed duration, the number, and the summed N of spans.
func total(spans []span) (ns int64, count, n int) {
	for _, s := range spans {
		ns += s.dur()
		n += s.N
	}
	return ns, len(spans), n
}

// covered is how much of the parents' time the kids' spans cover: for
// each parent, the union of the kid intervals clipped to it. A layer's
// self time is its own time minus this. Kids running in parallel
// (proof workers) count once, which is what the blocked caller waits.
func covered(parents, kids []span) int64 {
	var total int64
	for _, p := range parents {
		var end int64 = p.Start
		for _, k := range kids { // kids are sorted by start
			if k.Start >= p.End {
				break
			}
			lo, hi := max(k.Start, p.Start, end), min(k.End, p.End)
			if hi > lo {
				total += hi - lo
				end = hi
			}
		}
	}
	return total
}

// write dumps every span as JSON, by start time.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.named())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedAcc times the accumulator operations that cost pairings or
// multi-scalar multiplications; every other method is forwarded by the
// embedded interface.
type tracedAcc struct {
	accumulator.Accumulator
	tr *tracer
}

func (a tracedAcc) Setup(x multiset.Multiset) (accumulator.Acc, error) {
	s := a.tr.begin()
	out, err := a.Accumulator.Setup(x)
	a.tr.end(spanAccSetup, s, 1)
	return out, err
}

func (a tracedAcc) ProveDisjoint(x1, x2 multiset.Multiset) (accumulator.Proof, error) {
	s := a.tr.begin()
	out, err := a.Accumulator.ProveDisjoint(x1, x2)
	a.tr.end(spanProve, s, 1)
	return out, err
}

func (a tracedAcc) VerifyDisjoint(acc1, acc2 accumulator.Acc, proof accumulator.Proof) bool {
	s := a.tr.begin()
	ok := a.Accumulator.VerifyDisjoint(acc1, acc2, proof)
	a.tr.end(spanVerifyOne, s, 1)
	return ok
}

func (a tracedAcc) VerifyDisjointBatch(checks []accumulator.DisjointCheck) bool {
	s := a.tr.begin()
	ok := a.Accumulator.VerifyDisjointBatch(checks)
	a.tr.end(spanVerifyBatch, s, len(checks))
	return ok
}

func (a tracedAcc) Sum(accs ...accumulator.Acc) (accumulator.Acc, error) {
	s := a.tr.begin()
	out, err := a.Accumulator.Sum(accs...)
	a.tr.end(spanAccSum, s, len(accs))
	return out, err
}

func (a tracedAcc) ProofSum(proofs ...accumulator.Proof) (accumulator.Proof, error) {
	s := a.tr.begin()
	out, err := a.Accumulator.ProofSum(proofs...)
	a.tr.end(spanAccSum, s, len(proofs))
	return out, err
}

// readRec is one record read the backend served while recording.
type readRec struct {
	index int
	data  []byte
}

// tracedBackend times appends and reads of a storage backend. It also
// keeps what each recorded read returned, so the workload can replay
// the page-in's decode and commitment check by calling them directly.
type tracedBackend struct {
	storage.Backend
	tr *tracer

	mu       sync.Mutex
	syncAt   int64 // when Hooks.Sync last fired inside the current Append
	pageIns  []readRec
	keepData bool
}

func (b *tracedBackend) Append(data []byte) error {
	s := b.tr.begin()
	b.mu.Lock()
	b.syncAt = -1
	b.mu.Unlock()
	err := b.Backend.Append(data)
	b.mu.Lock()
	syncAt := b.syncAt
	b.mu.Unlock()
	if s >= 0 && syncAt >= 0 {
		b.tr.end(spanFsync, syncAt, len(data))
	}
	b.tr.end(spanAppend, s, len(data))
	return err
}

func (b *tracedBackend) Read(i int) ([]byte, error) {
	s := b.tr.begin()
	data, err := b.Backend.Read(i)
	b.tr.end(spanRead, s, len(data))
	if s >= 0 && err == nil && b.keepData {
		b.mu.Lock()
		b.pageIns = append(b.pageIns, readRec{i, data})
		b.mu.Unlock()
	}
	return data, err
}

// takePageIns returns and forgets the reads recorded so far.
func (b *tracedBackend) takePageIns() []readRec {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.pageIns
	b.pageIns = nil
	return out
}

// syncHook is the storage.Hooks.Sync of a traced log: it notes when the
// fsync starts and lets the real one run.
func (b *tracedBackend) syncHook() error {
	if at := b.tr.begin(); at >= 0 {
		b.mu.Lock()
		b.syncAt = at
		b.mu.Unlock()
	}
	return nil
}

// tracedChain times the query entry point the front ends call, so the
// round trip measured at the client splits into the SP's work and the
// wire around it.
type tracedChain struct {
	service.Chain
	tr *tracer
}

func (c tracedChain) TimeWindowParts(ctx context.Context, q core.Query, batched bool) ([]core.WindowPart, error) {
	s := c.tr.begin()
	parts, err := c.Chain.TimeWindowParts(ctx, q, batched)
	c.tr.end(spanSP, s, len(parts))
	return parts, err
}

// countedConn counts the bytes a client connection moves.
type countedConn struct {
	net.Conn
	rd, wr *atomic.Int64
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rd.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wr.Add(int64(n))
	return n, err
}
