package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
)

// RetryPolicy tunes client-side retries for idempotent requests
// (headers, queries, stats). Retries re-dial a failed connection
// transparently; non-idempotent requests (subscribe/unsubscribe) are
// never retried.
type RetryPolicy struct {
	// Attempts is the total number of tries per call (default 1: no
	// retries, matching the pre-retry client exactly).
	Attempts int
	// BaseBackoff is the first retry's backoff ceiling (default 50ms);
	// later retries double it up to maxBackoff.
	BaseBackoff time.Duration
}

// maxBackoff caps a retry's exponential backoff.
const maxBackoff = 2 * time.Second

// backoff returns the pause before retry attempt a (1-based): capped
// exponential with half-jitter, so a fleet of clients losing one SP
// does not reconnect in lockstep.
func (p RetryPolicy) backoff(a int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	d := base
	for i := 1; i < a; i++ {
		d *= 2
		if d >= maxBackoff || d <= 0 {
			d = maxBackoff
			break
		}
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// ClientConfig tunes the light-client side of the wire protocol. The
// zero value uses the defaults noted on each field.
type ClientConfig struct {
	// RPCTimeout bounds how long a request waits for its response
	// (default 30s). A stalled or dead SP fails every in-flight call
	// within this window instead of wedging callers forever. A caller
	// context with an earlier deadline tightens it per call.
	RPCTimeout time.Duration
	// FrameTimeout bounds a started frame's arrival or drain
	// (DefaultFrameTimeout when 0).
	FrameTimeout time.Duration
	// MaxFrame caps an inbound frame's payload (DefaultMaxFrame when
	// 0): a malicious SP cannot stream an unbounded frame into the
	// decoder.
	MaxFrame int
	// SubQueue caps a subscription's pending (pushed but not yet
	// verified) publications (default 1024). An SP pushing faster than
	// the client can verify for that long is flooding; the stream ends
	// with an overrun error instead of buffering without bound.
	SubQueue int
	// Retry governs idempotent-request retries (default: none).
	Retry RetryPolicy
	// Dialer overrides how connections are established (default
	// net.DialTimeout over TCP). Fault-injection tests use it to wrap
	// or sever connections.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 30 * time.Second
	}
	if c.SubQueue <= 0 {
		c.SubQueue = 1024
	}
	return c
}

// dialTimeout bounds each TCP dial.
const dialTimeout = 10 * time.Second

// subBuffer is a subscription's delivery channel capacity.
const subBuffer = 16

// ErrClosed reports an operation on a closed or failed connection.
var ErrClosed = errors.New("service: connection closed")

// ErrSubscriptionDropped ends a subscription stream that the SP
// dropped because it could not prove the subscription's clause against
// a block. The connection and its other streams are unaffected.
var ErrSubscriptionDropped = errors.New("service: subscription dropped by the SP")

// SPError is a processing error returned by the SP itself (as opposed
// to a transport failure). SP errors are never retried: the SP heard
// the request and answered; asking again would get the same answer.
type SPError struct {
	// Msg is the SP's error text.
	Msg string
	// Code names the sentinel the SP's error wrapped.
	Code Code
}

// Error implements error.
func (e *SPError) Error() string { return "service: SP error: " + e.Msg }

// Unwrap returns the sentinel the SP's error wrapped (nil for
// CodeNone), so errors.Is(err, shard.ErrShardUnavailable) holds over
// the wire as it does in process.
func (e *SPError) Unwrap() error { return e.Code.Err() }

// genState is one connection generation: the socket, its framing, and
// its lifecycle. A reconnect replaces the client's generation
// wholesale; waiters and streams hold the generation they started on,
// so a new connection can never satisfy (or fail) a call from an old
// one. err is set before done closes and immutable afterwards.
type genState struct {
	conn   net.Conn
	fc     *frameConn
	done   chan struct{}
	err    error
	failed bool // guarded by Client.mu
	// codec decodes VOs for calls that carry no accumulator of their
	// own. The read loop builds it from the SP's hello before it
	// dispatches any other frame, so a caller holding a response sees
	// it set.
	codec accumulator.Codec
}

// Client is a light node's connection to a remote SP. A background
// read loop dispatches responses to their callers by Seq and routes
// pushed publications to their subscriptions, so any number of calls
// (and subscription streams) can be in flight concurrently. When the
// connection fails, idempotent calls transparently re-dial (per the
// configured RetryPolicy); subscriptions end with a transport error
// and must be re-established by the consumer.
type Client struct {
	cfg  ClientConfig
	addr string

	// redialMu serializes reconnect attempts so a burst of failing
	// calls dials once, not once each.
	redialMu sync.Mutex

	mu         sync.Mutex
	gen        *genState
	seq        uint64 // never resets: a Seq is unique across generations
	pending    map[uint64]*call
	subs       map[int]*Subscription
	err        error // current generation's terminal error
	closing    bool  // user-initiated Close in progress
	reconnects int
	retries    int

	// verifies batches the verification of the publications this
	// client's streams have waiting.
	verifies verifyGroup
}

// call is one request waiting for its response. On a subscribe call,
// sub is the stream to register: the read loop files it under the
// acked id before it reads the next frame, and the SP queues a
// subscription's pushes behind its ack, so the first push finds it.
type call struct {
	ch  chan *Response
	sub *Subscription
}

// Dial connects to an SP. An optional ClientConfig tunes timeouts,
// frame caps, and the retry policy.
func Dial(addr string, cfg ...ClientConfig) (*Client, error) {
	return DialCtx(context.Background(), addr, cfg...)
}

// DialCtx is Dial with a caller-scoped context: a context deadline
// tightens the initial connection attempt below its 10 s bound, and a
// context already cancelled fails fast. The context does not outlive
// DialCtx: the client's read loop runs until Close, and a reconnect
// gets the full bound again.
func DialCtx(ctx context.Context, addr string, cfg ...ClientConfig) (*Client, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var c ClientConfig
	if len(cfg) > 0 {
		c = cfg[0]
	}
	timeout := dialTimeout
	if dl, ok := ctx.Deadline(); ok {
		timeout = min(timeout, time.Until(dl))
	}
	cli := &Client{
		cfg:     c.withDefaults(),
		addr:    addr,
		pending: map[uint64]*call{},
		subs:    map[int]*Subscription{},
	}
	gen, err := cli.dial(timeout)
	if err != nil {
		return nil, err
	}
	cli.gen = gen
	go cli.readLoop(gen)
	return cli, nil
}

// dial establishes one connection generation, bounding the dial by
// timeout.
func (c *Client) dial(timeout time.Duration) (*genState, error) {
	dialer := c.cfg.Dialer
	if dialer == nil {
		dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	conn, err := dialer(c.addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("service: dial: %w", err)
	}
	return &genState{
		conn: conn,
		fc:   newFrameConn(conn, c.cfg.MaxFrame, c.cfg.FrameTimeout),
		done: make(chan struct{}),
	}, nil
}

// ensureLive re-dials if the current generation has failed. Concurrent
// callers serialize on redialMu so one burst of failures produces one
// reconnect.
func (c *Client) ensureLive() error {
	c.redialMu.Lock()
	defer c.redialMu.Unlock()
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.err == nil {
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()

	gen, err := c.dial(dialTimeout)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		gen.conn.Close()
		return ErrClosed
	}
	// Fresh generation: waiters and subscriptions of the old one were
	// already swept by fail(); the Seq counter carries on so an old
	// generation's late response can never match a new call.
	c.gen = gen
	c.err = nil
	c.pending = map[uint64]*call{}
	c.subs = map[int]*Subscription{}
	c.reconnects++
	c.mu.Unlock()
	go c.readLoop(gen)
	return nil
}

// Reconnects reports how many times the client transparently re-dialed
// after a transport failure.
func (c *Client) Reconnects() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// Retries reports how many idempotent-request retries have been made.
func (c *Client) Retries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retries
}

// readLoop is one generation's only reader: it takes the SP's hello,
// then matches responses to waiting calls and hands pushed
// publications to their subscriptions.
func (c *Client) readLoop(gen *genState) {
	for {
		m, err := c.receive(gen)
		if err != nil {
			c.fail(gen, fmt.Errorf("service: receive: %w", err))
			return
		}
		switch m := m.(type) {
		case *Response:
			c.mu.Lock()
			cl := c.pending[m.Seq]
			delete(c.pending, m.Seq)
			// A failed generation's subscriptions were swept by fail():
			// registering now would leave a stream nothing ends.
			if cl != nil && cl.sub != nil && m.Err == "" && !gen.failed {
				cl.sub.ID, cl.sub.gen = m.SubID, gen
				c.subs[m.SubID] = cl.sub
			}
			c.mu.Unlock()
			if cl != nil {
				cl.ch <- m // buffered; never blocks
			}
		case *Push:
			c.mu.Lock()
			sub := c.subs[m.QueryID]
			c.mu.Unlock()
			if sub != nil {
				// enqueue never blocks (bounded queue, overrun ends
				// the stream), so a slow subscription consumer cannot
				// deadlock its own header-sync requests on this loop.
				sub.enqueue(m)
			}
		}
	}
}

// receive reads and decodes one frame of gen. The first must be the
// SP's hello, which sets gen's codec; no other frame may be one.
func (c *Client) receive(gen *genState) (message, error) {
	body, err := gen.fc.readBody()
	if err != nil {
		return nil, err
	}
	m, err := decodeServerFrame(body)
	if err != nil {
		return nil, err
	}
	h, isHello := m.(*hello)
	switch {
	case gen.codec == nil && !isHello:
		return nil, fmt.Errorf("%w: the SP's first frame is a %s, not its hello", ErrIncompatible, kindName(body[0]))
	case gen.codec != nil && isHello:
		return nil, fmt.Errorf("service: decode: %w: a second hello", errMalformed)
	case isHello:
		gen.codec, err = h.codec()
	}
	return m, err
}

// fail marks one generation dead, closes its socket (so the server
// sees the disconnect and deregisters this client's subscriptions
// instead of computing proofs for a peer that will never read), and
// unblocks its waiters and streams. The first caller's error sticks
// and closes the generation's done; later calls — and calls about an
// already-replaced generation — are no-ops.
func (c *Client) fail(gen *genState, err error) {
	gen.conn.Close()
	c.mu.Lock()
	if gen.failed {
		c.mu.Unlock()
		return
	}
	gen.failed = true
	if c.closing {
		err = ErrClosed
	}
	gen.err = err
	var subs []*Subscription
	if c.gen == gen {
		c.err = err
		subs = make([]*Subscription, 0, len(c.subs))
		for _, s := range c.subs {
			subs = append(subs, s)
		}
		c.subs = map[int]*Subscription{}
	}
	c.mu.Unlock()
	close(gen.done)
	for _, s := range subs {
		s.connFailed(err)
	}
}

// roundTrip sends one request on the current generation and waits for
// its response. Concurrent callers proceed independently: the
// connection mutex is held only to assign a Seq, and a dead or stalled
// SP fails each caller within RPCTimeout (or the context's earlier
// deadline) instead of queueing them behind one another. The serving
// generation is returned so callers binding state to the connection
// (Subscribe) can detect a reconnect after the ack. sub, set only on a
// subscribe request, is registered by the read loop with the ack.
func (c *Client) roundTrip(ctx context.Context, req *Request, sub *Subscription) (*Response, *genState, error) {
	c.mu.Lock()
	gen := c.gen
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, gen, err
	}
	c.seq++
	seq := c.seq
	req.Seq = seq
	ch := make(chan *Response, 1)
	c.pending[seq] = &call{ch: ch, sub: sub}
	c.mu.Unlock()

	abort := func() {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
	}
	// The effective budget is the tighter of RPCTimeout and the
	// context deadline; it rides the request so the server can abandon
	// the proof walk when the caller has given up.
	timeout := c.cfg.RPCTimeout
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < timeout {
			timeout = rem
		}
	}
	if timeout <= 0 {
		abort()
		if err := ctx.Err(); err != nil {
			return nil, gen, err
		}
		return nil, gen, context.DeadlineExceeded
	}
	// Clamp the serialized budget to a millisecond: a positive
	// sub-millisecond remainder truncates to 0, which the wire format
	// would otherwise deliver as a degenerate "no deadline" — the exact
	// opposite of a nearly expired context's intent.
	ms := timeout.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	req.DeadlineMs = ms

	if err := gen.fc.writeFrame(req); err != nil {
		abort()
		if errors.Is(err, errBrokenWrite) {
			// A partial write desynchronizes the stream: the whole
			// generation is done, not just this call.
			c.fail(gen, err)
		}
		return nil, gen, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		if resp.Err != "" {
			return nil, gen, &SPError{Msg: resp.Err, Code: resp.Code}
		}
		return resp, gen, nil
	case <-gen.done:
		abort()
		return nil, gen, gen.err
	case <-ctx.Done():
		abort()
		return nil, gen, ctx.Err()
	case <-timer.C:
		abort()
		return nil, gen, fmt.Errorf("service: %q timed out after %v", req.Kind, timeout)
	}
}

// retryable classifies an error for the idempotent-retry path: SP
// processing errors, context expiry, an incompatible SP and a
// deliberate Close are final;
// everything else is a transport fault worth another connection.
func retryable(err error) bool {
	var spe *SPError
	if errors.As(err, &spe) {
		return false
	}
	return !errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, ErrClosed) &&
		!errors.Is(err, ErrIncompatible)
}

// sleepCtx pauses for d or until the context ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// callIdem runs one idempotent request under the retry policy:
// re-dialing a failed connection, backing off exponentially with
// jitter between attempts, and never retrying an answer the SP
// actually gave. It returns the generation that answered, whose codec
// decodes the answer's VOs.
func (c *Client) callIdem(ctx context.Context, req *Request) (*Response, *genState, error) {
	attempts := c.cfg.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for a := 1; a <= attempts; a++ {
		if a > 1 {
			c.mu.Lock()
			c.retries++
			c.mu.Unlock()
			if err := sleepCtx(ctx, c.cfg.Retry.backoff(a-1)); err != nil {
				return nil, nil, err
			}
		}
		if err := c.ensureLive(); err != nil {
			lastErr = err
			if !retryable(err) {
				return nil, nil, err
			}
			continue
		}
		r := *req // fresh copy: Seq and DeadlineMs are per-attempt
		resp, gen, err := c.roundTrip(ctx, &r, nil)
		if err == nil {
			return resp, gen, nil
		}
		lastErr = err
		if !retryable(err) {
			return nil, nil, err
		}
	}
	return nil, nil, lastErr
}

// Headers fetches one batch of headers from a height onward. The
// server bounds the batch size; use SyncHeaders to catch a light
// store fully up.
func (c *Client) Headers(ctx context.Context, from int) ([]chain.Header, error) {
	resp, _, err := c.callIdem(ctx, &Request{Kind: "headers", FromHeight: from})
	if err != nil {
		return nil, err
	}
	return resp.Headers, nil
}

// SyncHeaders catches a light store up to the SP's chain tip, fetching
// bounded batches until none remain. Every batch is PoW- and
// linkage-validated by the store; the SP cannot feed a divergent
// chain.
func (c *Client) SyncHeaders(ctx context.Context, light *chain.LightStore) error {
	for {
		from := light.Height()
		headers, err := c.Headers(ctx, from)
		if err != nil {
			return err
		}
		if len(headers) == 0 {
			return nil
		}
		if err := light.Sync(headers); err != nil {
			return fmt.Errorf("service: header sync: %w", err)
		}
		if light.Height() == from {
			// A non-empty batch that advances nothing means the SP is
			// replaying headers we already hold — fail at the true
			// fault point instead of letting a later verification
			// blame its VO for the stale view.
			return fmt.Errorf("service: header sync stalled: SP replayed %d stale headers from height %d",
				len(headers), from)
		}
	}
}

// QueryParts runs a remote time-window query and returns the
// (unverified) answer as window parts: one part spanning the whole
// window, at every shard count of the SP. Their VOs are decoded with
// the codec the SP's hello names, built from this client's own copy of
// the parameters. Verify with core.Verifier.VerifyWindowParts, which
// settles the parts in a single pairing-product batch.
// batched is ignored; the benchmark pins it until ROADMAP item 24.
func (c *Client) QueryParts(ctx context.Context, q core.Query, batched bool) ([]core.WindowPart, error) {
	parts, _, err := c.query(ctx, q, false, nil)
	return parts, err
}

// QueryDegraded runs a remote time-window query in degraded-read mode:
// if parts of the window are unprovable (a sharded SP with a
// quarantined shard), the SP answers with the provable parts plus
// machine-readable gaps instead of an error. VOs decode as in
// QueryParts. Verify the pair with core.Verifier.VerifyDegraded — the
// gaps are claims until then.
func (c *Client) QueryDegraded(ctx context.Context, q core.Query) ([]core.WindowPart, []core.Gap, error) {
	return c.query(ctx, q, true, nil)
}

// QueryVerified runs a remote time-window query and verifies the
// answer locally with the supplied verifier before returning the
// results — the one-call path a light client actually wants. The
// answer's VOs decode with the verifier's accumulator, and every
// part's pending pairing checks resolve in one batched flush. The
// returned objects carry the full soundness/completeness guarantee;
// any SP misbehavior surfaces as the verifier's error. The verifier
// defaults to the batched engine; set ver.Sequential for the baseline.
func (c *Client) QueryVerified(ctx context.Context, q core.Query, batched bool, ver *core.Verifier) ([]chain.Object, error) {
	parts, _, err := c.query(ctx, q, false, ver.Acc)
	if err != nil {
		return nil, err
	}
	return ver.VerifyWindowParts(q, parts)
}

// QueryVerifiedDegraded is QueryVerified for degraded reads: the
// verified partial answer comes back as a DegradedResult whose Gaps
// are cryptographically checked to tile the window exactly with the
// parts. When gaps are present the result is accompanied by
// core.ErrDegraded — a degraded answer is never silently incomplete.
func (c *Client) QueryVerifiedDegraded(ctx context.Context, q core.Query, ver *core.Verifier) (*core.DegradedResult, error) {
	parts, gaps, err := c.query(ctx, q, true, ver.Acc)
	if err != nil {
		return nil, err
	}
	return ver.VerifyDegraded(q, parts, gaps)
}

// query runs one remote time-window query and decodes its parts with
// codec, or with the answering connection's hello codec when codec is
// nil.
func (c *Client) query(ctx context.Context, q core.Query, degraded bool, codec accumulator.Codec) ([]core.WindowPart, []core.Gap, error) {
	resp, gen, err := c.callIdem(ctx, &Request{Kind: "query", Query: q, AllowDegraded: degraded})
	if err != nil {
		return nil, nil, err
	}
	if codec == nil {
		codec = gen.codec
	}
	parts := make([]core.WindowPart, len(resp.Parts))
	for i, p := range resp.Parts {
		vo, err := core.DecodeVO(codec, p.VO)
		if err != nil {
			return nil, nil, fmt.Errorf("service: VO of part [%d,%d]: %w", p.Start, p.End, err)
		}
		parts[i] = core.WindowPart{Start: p.Start, End: p.End, VO: vo}
	}
	return parts, resp.Gaps, nil
}

// Close disconnects. In-flight calls fail with ErrClosed, every
// subscription stream ends, and no reconnects happen afterwards.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closing = true
	gen := c.gen
	c.mu.Unlock()
	return gen.conn.Close()
}
