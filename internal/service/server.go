package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/subscribe"
)

// ServerConfig tunes the SP side of the wire protocol. The zero value
// uses the defaults noted on each field.
type ServerConfig struct {
	// MaxFrame caps an inbound frame's payload in bytes
	// (DefaultMaxFrame when 0). Requests are small; the cap exists so
	// a malicious client cannot stream a multi-GB frame into the
	// decoder.
	MaxFrame int
	// FrameTimeout bounds how long a started frame may take to finish
	// arriving or draining (DefaultFrameTimeout when 0). Idle
	// connections are unaffected.
	FrameTimeout time.Duration
	// SendQueue is the per-connection outbound queue length (default
	// 64). When a subscriber's queue is full at publication fan-out
	// time the connection is evicted: a slow consumer must never stall
	// the miner or other subscribers.
	SendQueue int
	// Subscriptions configures the server's subscription engine
	// (IP-tree sharing, lazy spans). The engine always routes through
	// the node's shared proof engine.
	Subscriptions subscribe.Options
}

// maxHeaderBatch is the ceiling on one headers response regardless of
// the frame cap. A variable so tests can exercise the pagination loop
// on short chains.
var maxHeaderBatch = 2048

// headerWireBytes is the wire cost of one header in a headers
// response: its canonical encoding, nothing more. The header batch
// size is derived from the configured frame cap with it (after the
// response's fixed envelope), so a server run with a small MaxFrame
// shrinks its batches instead of building a reply the writer must
// degrade to an error — which would wedge SyncHeaders forever.
const headerWireBytes = chain.HeaderSize

// headerEnvelopeBytes is the payload of a headers response around its
// headers: the kind byte, Seq, an empty Err, Code, the header count,
// and the empty part, gap, SubID and publication fields.
var headerEnvelopeBytes = func() int {
	frame, _ := encodeFrame(&Response{})
	return len(frame) - framePrefixLen
}()

// headerBatch returns how many headers fit one response frame under
// this configuration's cap.
func (c ServerConfig) headerBatch() int {
	frameCap := c.MaxFrame
	if frameCap <= 0 {
		frameCap = DefaultMaxFrame
	}
	n := (frameCap - headerEnvelopeBytes) / headerWireBytes
	if n < 1 {
		n = 1
	}
	if n > maxHeaderBatch {
		n = maxHeaderBatch
	}
	return n
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.SendQueue <= 0 {
		c.SendQueue = 64
	}
	return c
}

// Server serves one node's chain — monolithic or sharded — over the
// wire protocol: time-window queries, header sync, and streaming
// subscriptions.
type Server struct {
	node   Chain
	cfg    ServerConfig
	engine *subscribe.Engine
	// hello is the encoded first frame of every connection; helloErr
	// is why none could be built, which fails Serve.
	hello    []byte
	helloErr error

	// done closes when the server shuts down; ServeCtx's context
	// watcher exits through it when the server dies before the context.
	done chan struct{}

	mu       sync.Mutex
	listener net.Listener
	conns    map[*serverConn]struct{}
	subOwner map[int]*serverConn
	closed   bool
	evicted  int

	// tamperPub is a test hook: the adversarial streaming suite uses
	// it to model a cheating SP mutating publications before push.
	// Returning nil drops the publication.
	tamperPub func(*subscribe.Publication) *subscribe.Publication
}

// NewServer wraps a node (a core.FullNode or a shard.Node). An
// optional ServerConfig tunes frame caps, queue sizes, and the
// subscription engine.
func NewServer(node Chain, cfg ...ServerConfig) *Server {
	var c ServerConfig
	if len(cfg) > 0 {
		c = cfg[0]
	}
	c = c.withDefaults()
	subOpts := c.Subscriptions
	if subOpts.Proofs == nil {
		subOpts.Proofs = node.ProofEngine()
	}
	s := &Server{
		node:     node,
		cfg:      c,
		engine:   subscribe.NewEngine(node.Acc(), subOpts),
		done:     make(chan struct{}),
		conns:    map[*serverConn]struct{}{},
		subOwner: map[int]*serverConn{},
	}
	h, err := newHello(node.Acc())
	if err == nil {
		s.hello, err = encodeFrame(h)
	}
	s.helloErr = err
	return s
}

// Serve starts listening on addr (e.g. "127.0.0.1:0") and returns the
// bound address. Connections are handled on background goroutines
// until Close.
func (s *Server) Serve(addr string) (string, error) {
	return s.ServeCtx(context.Background(), addr)
}

// ServeCtx is Serve with a caller-scoped lifetime: cancelling ctx
// closes the listener and ends the accept loop. Connections already
// accepted keep running until Close tears them down.
func (s *Server) ServeCtx(ctx context.Context, addr string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	if s.helloErr != nil {
		return "", s.helloErr
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("service: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("service: server closed")
	}
	s.listener = ln
	s.mu.Unlock()
	go s.acceptLoop(ln)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				ln.Close()
			case <-s.done:
			}
		}()
	}
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		sc := &serverConn{
			srv:  s,
			fc:   newFrameConn(conn, s.cfg.MaxFrame, s.cfg.FrameTimeout),
			out:  make(chan outFrame, s.cfg.SendQueue),
			done: make(chan struct{}),
			subs: map[int]struct{}{},
		}
		// The hello goes first on every connection.
		sc.out <- outFrame{frame: s.hello}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		go sc.writeLoop()
		go sc.readLoop()
	}
}

// ProcessBlock runs the subscription engine over a freshly mined block
// and fans the due publications out to their subscribers' outbound
// queues. The miner calls it once per block, in height order. A
// subscriber whose queue is full is evicted rather than awaited: one
// slow consumer must not block the mining path or other subscribers.
func (s *Server) ProcessBlock(height int) error {
	ads, err := s.node.ADSAt(height)
	if err != nil {
		return fmt.Errorf("service: ADS at height %d: %w", height, err)
	}
	if ads == nil {
		return fmt.Errorf("service: no ADS at height %d", height)
	}
	pubs, err := s.engine.ProcessBlock(ads, s.node)
	if err != nil {
		return fmt.Errorf("service: subscriptions at height %d: %w", height, err)
	}
	for i := range pubs {
		s.pushPub(&pubs[i])
	}
	return nil
}

// pushPub routes one publication to its owning connection.
func (s *Server) pushPub(pub *subscribe.Publication) {
	if s.tamperPub != nil {
		if pub = s.tamperPub(pub); pub == nil {
			return
		}
	}
	s.mu.Lock()
	sc := s.subOwner[pub.QueryID]
	s.mu.Unlock()
	if sc == nil {
		return // subscriber disconnected between engine and fan-out
	}
	frame, err := encodeFrame(s.push(pub))
	if err != nil {
		return // too large for any frame: the client's continuity check flags the hole
	}
	select {
	case sc.out <- outFrame{frame: frame}:
	default:
		// Slow consumer: the outbound queue is full. Drop the
		// connection (its subscriptions deregister with it) instead of
		// blocking the fan-out.
		s.mu.Lock()
		s.evicted++
		s.mu.Unlock()
		sc.teardown()
	}
}

// Evictions reports how many connections were dropped for slow
// consumption.
func (s *Server) Evictions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// Subscriptions returns the ids currently registered by remote
// clients.
func (s *Server) Subscriptions() []int { return s.engine.Subscriptions() }

// Close stops the listener and open connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed && s.done != nil {
		close(s.done)
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	for _, sc := range conns {
		sc.teardown()
	}
	return err
}

// push renders a publication for the wire, its VO in canonical bytes.
func (s *Server) push(pub *subscribe.Publication) *Push {
	return &Push{QueryID: pub.QueryID, From: pub.From, To: pub.To, VO: core.EncodeVO(s.node.Acc(), pub.VO)}
}

// outFrame is one encoded frame in a connection's outbound queue: the
// answer to request seq, or (seq 0) the hello or a push.
type outFrame struct {
	seq   uint64
	frame []byte
}

// serverConn is one client connection: a reader goroutine decoding
// requests, a writer goroutine draining the outbound queue, and the
// subscription ids owned by this connection.
type serverConn struct {
	srv  *Server
	fc   *frameConn
	out  chan outFrame
	done chan struct{}
	once sync.Once

	// subs is guarded by srv.mu.
	subs map[int]struct{}
}

func (sc *serverConn) readLoop() {
	defer sc.teardown()
	for {
		var req Request
		if err := sc.fc.readFrame(&req); err != nil {
			return // disconnect, oversized frame, or stalled frame
		}
		resp := sc.process(&req)
		resp.Seq = req.Seq
		frame, err := encodeFrame(resp)
		if err != nil {
			frame, _ = encodeFrame(&Response{Seq: req.Seq, Err: err.Error()})
		}
		select {
		case sc.out <- outFrame{seq: req.Seq, frame: frame}:
		case <-sc.done:
			return
		}
	}
}

func (sc *serverConn) writeLoop() {
	for {
		select {
		case out := <-sc.out:
			err := sc.fc.write(out.frame)
			if err != nil && errors.Is(err, ErrFrameTooLarge) {
				// Nothing hit the wire: the connection is fine, only
				// this message is too big. Tell the caller when it was
				// an RPC reply; an oversized publication is dropped
				// (the client's continuity check will flag the hole).
				if out.seq != 0 {
					err = sc.fc.writeFrame(&Response{Seq: out.seq,
						Err: "response exceeds the frame size cap"})
				} else {
					err = nil
				}
			}
			if err != nil {
				sc.teardown()
				return
			}
		case <-sc.done:
			return
		}
	}
}

// teardown closes the connection and deregisters its subscriptions.
func (sc *serverConn) teardown() {
	sc.once.Do(func() {
		close(sc.done)
		sc.fc.conn.Close()
		s := sc.srv
		s.mu.Lock()
		delete(s.conns, sc)
		ids := make([]int, 0, len(sc.subs))
		for id := range sc.subs {
			ids = append(ids, id)
			delete(s.subOwner, id)
		}
		s.mu.Unlock()
		for _, id := range ids {
			s.engine.Deregister(id)
		}
	})
}

func (sc *serverConn) process(req *Request) *Response {
	s := sc.srv
	switch req.Kind {
	case "headers":
		// Bounded batches keep every response frame below the frame
		// cap no matter how long the chain grows; the client's
		// SyncHeaders loops until it is caught up. The bound is derived
		// from the configured cap: a hard-coded batch would overflow a
		// small-MaxFrame server's writer, degrade to an error response,
		// and wedge header sync.
		page, _, err := HeaderPage(s.node, req.FromHeight, s.cfg.headerBatch())
		if err != nil {
			return errResponse(err)
		}
		return &Response{Headers: page}
	case "query":
		// The client's remaining call budget rides the request; deriving
		// a context from it means a query whose caller has already given
		// up stops consuming proof workers mid-walk. A non-positive
		// budget is rejected rather than read as "no deadline": a client
		// whose context is already (or nearly) expired must not buy an
		// unbounded proof walk by underflowing the field.
		if req.DeadlineMs <= 0 {
			return &Response{Err: fmt.Sprintf("invalid DeadlineMs %d: queries must carry a positive deadline budget", req.DeadlineMs)}
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(req.DeadlineMs)*time.Millisecond)
		defer cancel()
		if req.AllowDegraded {
			parts, gaps, err := s.node.TimeWindowDegraded(ctx, req.Query)
			if err != nil {
				return errResponse(err)
			}
			return &Response{Parts: s.wireParts(parts), Gaps: gaps}
		}
		parts, err := s.node.TimeWindowParts(ctx, req.Query, true)
		if err != nil {
			return errResponse(err)
		}
		return &Response{Parts: s.wireParts(parts)}
	case "subscribe":
		// Register and record ownership under one lock so a block
		// mined in between cannot emit a publication that pushPub
		// finds ownerless (and silently drops). A connection already
		// torn down (teardown consumed sc.once, so it would never
		// deregister again) must not register ghost subscriptions.
		s.mu.Lock()
		if _, live := s.conns[sc]; !live {
			s.mu.Unlock()
			return &Response{Err: "connection closing"}
		}
		id, err := s.engine.Register(req.Query)
		if err != nil {
			s.mu.Unlock()
			return errResponse(err)
		}
		s.subOwner[id] = sc
		sc.subs[id] = struct{}{}
		s.mu.Unlock()
		return &Response{SubID: id}
	case "unsubscribe":
		s.mu.Lock()
		owner := s.subOwner[req.SubID]
		if owner == sc {
			delete(s.subOwner, req.SubID)
			delete(sc.subs, req.SubID)
		}
		s.mu.Unlock()
		if owner != sc {
			return &Response{Err: fmt.Sprintf("unknown subscription %d", req.SubID)}
		}
		// The final pending lazy span (if any) rides the ack, so the
		// client sees every block the subscription covered.
		resp := &Response{SubID: req.SubID}
		if pub := s.engine.Deregister(req.SubID); pub != nil {
			resp.Pub = s.push(pub)
		}
		return resp
	default:
		return &Response{Err: fmt.Sprintf("unknown request kind %q", req.Kind)}
	}
}

// wireParts renders an answer's parts for the wire, their VOs in
// canonical bytes.
func (s *Server) wireParts(parts []core.WindowPart) []Part {
	out := make([]Part, len(parts))
	for i, p := range parts {
		out[i] = Part{Start: p.Start, End: p.End, VO: core.EncodeVO(s.node.Acc(), p.VO)}
	}
	return out
}
