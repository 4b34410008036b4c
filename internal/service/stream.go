package service

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/subscribe"
)

// Delivery is one item of a subscription stream: a pushed publication
// together with the outcome of its local verification. Err == nil
// certifies Objects is exactly the span's correct result set; a
// non-nil Err with a Pub wraps core.ErrSoundness / core.ErrCompleteness
// (or core.ErrVODecode) and Objects is nil — a tampered publication is
// never delivered as results. A Delivery with a nil Pub is no verdict
// but the stream's end: the last item before C closes, carrying the
// error that Subscription.Err also returns (a transport failure, or
// ErrSubscriptionDropped). It is sent only if the consumer is keeping
// up, so read Err after C closes.
type Delivery struct {
	// Pub is the publication as pushed by the SP (untrusted). Its VO
	// is nil when the pushed bytes did not decode; Pub itself is nil
	// on the stream's terminal delivery.
	Pub *subscribe.Publication
	// Objects is the locally verified result set (nil when Err != nil).
	Objects []chain.Object
	// Err reports why the publication (or the stream) was rejected.
	Err error
}

// SubscribeConfig equips a subscription stream with the client's local
// verification state. Acc and Light are required: every pushed
// publication is verified against them before delivery.
type SubscribeConfig struct {
	// Acc is the deployment's accumulator (public part).
	Acc accumulator.Accumulator
	// Light is the client's header store. Headers covering a pushed
	// span are fetched and PoW-validated automatically before the
	// span's VO is verified.
	Light *chain.LightStore
}

// Subscription is a client-side stream of locally verified
// publications. Read C until it closes; call Close to unsubscribe
// (the SP's final pending lazy span, if any, still arrives on C).
// After C closes, Err reports whether the stream ended because the
// connection failed or the SP dropped the subscription. The stream
// goroutine runs until C is drained or the connection closes — a
// consumer that abandons C without closing the client keeps the
// goroutine parked.
type Subscription struct {
	// ID is the SP-assigned subscription id.
	ID int
	// C delivers verified publications in push order.
	C <-chan Delivery

	c   *Client
	gen *genState // the connection generation this stream lives on
	q   core.Query
	cfg SubscribeConfig
	out chan Delivery

	mu      sync.Mutex
	queue   []*Push
	closed  bool  // no further enqueues; drain then close C
	failErr error // terminal transport error
	signal  chan struct{}

	lastTo int // newest verified height; continuity anchor

	closeOnce sync.Once
	closeErr  error
}

// SubscribeCtx registers a continuous query with the SP and returns
// its verified delivery stream. The query's window fields are ignored.
// ctx bounds the subscribe handshake only: the returned stream runs
// until Close or a transport failure.
func (c *Client) SubscribeCtx(ctx context.Context, q core.Query, cfg SubscribeConfig) (*Subscription, error) {
	if cfg.Acc == nil || cfg.Light == nil {
		return nil, errors.New("service: SubscribeConfig needs Acc and Light")
	}
	if _, err := q.CNF(); err != nil {
		return nil, err
	}
	sub := &Subscription{
		c: c, q: q, cfg: cfg,
		out:    make(chan Delivery, subBuffer),
		signal: make(chan struct{}, 1),
		lastTo: -1,
	}
	sub.C = sub.out
	// The read loop registers sub (ID and generation) as it reads the
	// ack, so pushes behind the ack queue on sub until run starts.
	_, gen, err := c.roundTrip(ctx, &Request{Kind: "subscribe", Query: q}, sub)

	c.mu.Lock()
	// The connection may have died right after delivering the ack:
	// fail() has swept c.subs (or the read loop never registered sub)
	// and will not run again, so the stream would be one nothing ever
	// ends. A reconnect in the same window is the same hazard with
	// fresh maps: the server that acked this subscription is gone.
	if err == nil && (c.err != nil || c.gen != gen) {
		if c.err != nil {
			err = c.err
		} else {
			err = fmt.Errorf("service: connection reset during subscribe: %w", gen.err)
		}
	}
	if err != nil && c.subs[sub.ID] == sub {
		delete(c.subs, sub.ID) // acked, but the caller gave up first
	}
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	go sub.run()
	return sub, nil
}

// Close unsubscribes at the SP and ends the stream. The SP flushes the
// subscription's final pending span (lazy mode) into the stream before
// C closes.
func (s *Subscription) Close() error {
	s.closeOnce.Do(func() {
		resp, _, err := s.c.roundTrip(context.Background(), &Request{Kind: "unsubscribe", SubID: s.ID}, nil)
		s.c.mu.Lock()
		if s.c.subs[s.ID] == s {
			delete(s.c.subs, s.ID)
		}
		s.c.mu.Unlock()
		if err != nil {
			s.closeErr = err
		} else if resp.Pub != nil {
			s.enqueue(resp.Pub)
		}
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.wake()
	})
	return s.closeErr
}

// enqueue parks one pushed publication for the stream goroutine. The
// connection's read loop must never block on a stream consumer (the
// consumer's own header-sync requests ride the same read loop), so
// the queue absorbs bursts — but only up to SubQueue: an untrusted SP
// pushing faster than the client verifies for that long is flooding,
// and the stream ends with an overrun error rather than buffering
// unboundedly.
func (s *Subscription) enqueue(pub *Push) {
	s.mu.Lock()
	switch {
	case s.closed || s.failErr != nil:
		// Stream already ending; drop.
	case len(s.queue) >= s.c.cfg.SubQueue:
		s.failErr = fmt.Errorf("service: subscription %d overrun: SP pushed more than %d unverified publications",
			s.ID, s.c.cfg.SubQueue)
		s.queue = nil
	default:
		s.queue = append(s.queue, pub)
	}
	s.mu.Unlock()
	s.wake()
}

// abandonRemote best-effort deregisters a failed stream at the SP and
// drops it from the client's routing table. It shares Close's once so
// a later user Close is a no-op; the final-flush publication (if any)
// is discarded — the stream has already failed. tell is false when the
// SP has already forgotten the subscription.
func (s *Subscription) abandonRemote(tell bool) {
	s.closeOnce.Do(func() {
		s.c.mu.Lock()
		// Only tell the SP while the stream's own generation is still
		// current and alive: after a reconnect, the server that knew
		// this subscription id is gone.
		dead := !tell || s.c.err != nil || s.c.gen != s.gen
		if s.c.subs[s.ID] == s {
			delete(s.c.subs, s.ID)
		}
		s.c.mu.Unlock()
		if !dead {
			_, _, _ = s.c.roundTrip(context.Background(), &Request{Kind: "unsubscribe", SubID: s.ID}, nil)
		}
	})
}

// connFailed ends the stream with a transport error.
func (s *Subscription) connFailed(err error) {
	s.mu.Lock()
	if s.failErr == nil {
		s.failErr = err
	}
	s.mu.Unlock()
	s.wake()
}

func (s *Subscription) wake() {
	select {
	case s.signal <- struct{}{}:
	default:
	}
}

// run is the stream goroutine: it drains the queue, verifies each
// publication, and delivers the outcome in order.
func (s *Subscription) run() {
	for {
		s.mu.Lock()
		var pub *Push
		if s.failErr == nil && len(s.queue) > 0 {
			pub = s.queue[0]
			s.queue = s.queue[1:]
		}
		failErr, closed := s.failErr, s.closed
		s.mu.Unlock()

		if pub != nil && pub.Err != "" {
			// The SP dropped the subscription: its last frame ends
			// the stream, after every publication queued before it.
			s.mu.Lock()
			if s.failErr == nil {
				s.failErr = fmt.Errorf("%w: subscription %d: %s", ErrSubscriptionDropped, s.ID, pub.Err)
			}
			s.mu.Unlock()
			continue
		}
		if pub == nil {
			switch {
			case failErr != nil:
				// A user-initiated Close is a clean end, not an error
				// worth a delivery. Other terminal errors are surfaced
				// on the stream if the consumer is keeping up, and are
				// always available via Err after C closes.
				if !errors.Is(failErr, ErrClosed) {
					select {
					case s.out <- Delivery{Err: failErr}:
					default:
					}
				}
				// If the connection itself is still alive (e.g. a
				// queue overrun ended only this stream), tell the SP:
				// otherwise it keeps computing proofs and pushing
				// publications for a stream nothing reads. A dropped
				// subscription is one the SP no longer has.
				s.abandonRemote(!errors.Is(failErr, ErrSubscriptionDropped))
				close(s.out)
				return
			case closed:
				close(s.out)
				return
			default:
				<-s.signal
				continue
			}
		}
		// The send aborts when the connection ends so a consumer that
		// stopped reading cannot park this goroutine forever (the
		// queued deliveries are moot once the connection is gone).
		select {
		case s.out <- s.verify(pub):
		case <-s.gen.done:
			// Record the terminal error before closing so Err is
			// already set when the consumer sees the closed channel.
			// gen.err is immutable once gen.done closes, and this
			// stream's lifetime is bound to its own generation — a
			// reconnect must not resurrect it.
			err := s.gen.err
			s.mu.Lock()
			if s.failErr == nil {
				s.failErr = err
			}
			s.mu.Unlock()
			close(s.out)
			return
		}
	}
}

// Err returns the error that ended the stream — a transport failure,
// or ErrSubscriptionDropped — or nil after a clean end (Close, or a
// clean client shutdown). Read it after C closes to distinguish "the
// SP went away mid-stream" or "the SP dropped the subscription" from a
// deliberate unsubscribe.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failErr != nil && !errors.Is(s.failErr, ErrClosed) {
		return s.failErr
	}
	return nil
}

// verify checks one pushed publication: its VO decodes with the
// stream's accumulator, then header auto-sync for the covered span,
// stream continuity, and the span VO itself. The checks after the
// decode run in the connection's group commit (verifyGroup), so the
// publications the connection's streams have waiting are settled
// together.
//
// The continuity anchor advances only on a successfully verified
// span, and re-arms (accept any From, like the stream's first
// publication) after a failed one. Advancing on claims would let one
// tampered frame with an inflated To poison every later honest
// publication; holding the anchor after a failure would turn one
// transient header-sync error into a cascade of false gap
// accusations. Either way the failed delivery itself has already told
// the consumer the stream's completeness guarantee was interrupted at
// that point.
func (s *Subscription) verify(p *Push) Delivery {
	pub := &subscribe.Publication{QueryID: p.QueryID, From: p.From, To: p.To}
	j := &verifyJob{s: s, pub: pub, d: Delivery{Pub: pub}}
	var err error
	if pub.VO, err = core.DecodeVO(s.cfg.Acc, p.VO); err != nil {
		j.d.Err = fmt.Errorf("service: publication [%d,%d]: %w", p.From, p.To, err)
	} else {
		s.c.verifies.do(j, s.c.verifyBatch)
	}
	if j.d.Err != nil {
		s.lastTo = -1
	} else {
		s.lastTo = pub.To
	}
	return j.d
}

// verifyJob is one publication of stream s waiting in the group
// commit. The stream's goroutine is blocked in do until done, so the
// leader may read s's query, configuration and continuity anchor.
type verifyJob struct {
	s    *Subscription
	pub  *subscribe.Publication
	d    Delivery
	done bool // guarded by verifyGroup.mu
}

// verifyGroup is a connection's group commit for stream verification.
// The first stream goroutine to arrive leads: it takes every job
// queued by then, runs them as one batch, and on finishing hands
// leadership to a waiter whose job arrived meanwhile. There is no
// timer: a lone publication is verified at once, and the publications
// that arrive while a batch runs form the next one. The zero value is
// ready to use.
type verifyGroup struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*verifyJob
	leading bool
}

// do queues j and returns once a batch containing it has run.
func (g *verifyGroup) do(j *verifyJob, run func([]*verifyJob)) {
	g.mu.Lock()
	if g.cond == nil {
		g.cond = sync.NewCond(&g.mu)
	}
	g.queue = append(g.queue, j)
	for !j.done {
		if g.leading {
			g.cond.Wait()
			continue
		}
		g.leading = true
		batch := g.queue
		g.queue = nil
		g.mu.Unlock()
		run(batch)
		g.mu.Lock()
		for _, b := range batch {
			b.done = true
		}
		g.leading = false
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// verifyBatch settles one group-commit batch. Jobs that share an
// (Acc, Light) configuration sync headers once and verify their spans
// in one core.Verifier.VerifySpans call.
func (c *Client) verifyBatch(jobs []*verifyJob) {
	var groups [][]*verifyJob
next:
	for _, j := range jobs {
		for i, g := range groups {
			if g[0].s.cfg == j.s.cfg {
				groups[i] = append(g, j)
				continue next
			}
		}
		groups = append(groups, []*verifyJob{j})
	}
	for _, g := range groups {
		c.verifyJobs(g[0].s.cfg, g)
	}
}

// verifyJobs verifies jobs that share cfg.
func (c *Client) verifyJobs(cfg SubscribeConfig, jobs []*verifyJob) {
	// Header auto-sync: one sync fetches (and PoW-validates) the chain
	// past the newest block any job covers. The SP supplies the headers
	// but cannot forge them — SyncHeaders re-checks linkage and
	// proof-of-work. A failed sync fails the jobs it left uncovered.
	var syncErr error
	for _, j := range jobs {
		if cfg.Light.Height() <= j.pub.To {
			syncErr = c.SyncHeaders(context.Background(), cfg.Light)
			break
		}
	}
	var spans []core.Span
	var walked []*verifyJob
	for _, j := range jobs {
		pub := j.pub
		switch {
		case syncErr != nil && cfg.Light.Height() <= pub.To:
			j.d.Err = fmt.Errorf("service: header sync for publication [%d,%d]: %w",
				pub.From, pub.To, syncErr)
		case j.s.lastTo >= 0 && pub.From != j.s.lastTo+1:
			// Continuity: consecutive publications must tile the chain.
			// A span that skips blocks is an SP silently withholding
			// results — a completeness violation even when the span
			// itself verifies.
			j.d.Err = fmt.Errorf("%w: publication span [%d,%d] does not continue at block %d",
				core.ErrCompleteness, pub.From, pub.To, j.s.lastTo+1)
		default:
			spans = append(spans, core.Span{Query: j.s.q, From: pub.From, To: pub.To, VO: pub.VO})
			walked = append(walked, j)
		}
	}
	ver := &core.Verifier{Acc: cfg.Acc, Light: cfg.Light}
	for i, r := range ver.VerifySpans(spans) {
		walked[i].d.Objects, walked[i].d.Err = r.Objects, r.Err
	}
}
