package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/wire"
)

// The wire protocol is a sequence of length-prefixed binary frames:
// every message travels as a 4-byte big-endian payload length followed
// by exactly that many bytes. The prefix lets both sides cap the size
// of a frame *before* decoding it, and makes the decode surface a pure
// function of a bounded byte slice (fuzzable, see FuzzFrameDecode).
//
// A payload opens with one kind byte and is decoded by that kind's
// fixed layout alone, so frames decode independently of connection
// history: the only state a connection carries is the names of the
// SP's hello, which the client reads before any other frame. Integers
// are big-endian; "int" is an i64; "str" is a u32 length and the bytes.
//
//	hello    = u16 version, str construction, str preset
//	request  = u64 Seq, str Kind, int FromHeight, core.WriteQuery,
//	           u8 flags (2 = AllowDegraded; any other bit is refused),
//	           int DeadlineMs, int SubID
//	response = u64 Seq, str Err, u8 Code,
//	           u32 n, n × chain.Header.Bytes(),
//	           u32 n, n × (int Start, int End, u32 len, core.EncodeVO),
//	           core.WriteGaps, int SubID, u8 hasPub, [push]
//	push     = int QueryID, int From, int To, str Err,
//	           core.EncodeVO to the end
//
// Every VO on the wire is exactly its canonical core.EncodeVO bytes,
// and every header exactly its PoW preimage: a decoded frame re-encodes
// to the identical bytes.

const (
	// DefaultMaxFrame bounds a peer's frame payload. Time-window VOs
	// over toy chains are a few KB; even default-preset VOs over long
	// windows stay well under a megabyte, so a few MB leaves headroom
	// without letting a malicious peer stream gigabytes.
	DefaultMaxFrame = 4 << 20

	// DefaultFrameTimeout bounds how long a started frame may take to
	// arrive or drain: once the first prefix byte is read, the rest of
	// the frame must complete within this window (anti-slowloris). Idle
	// connections — a subscriber waiting for the next publication — are
	// unaffected, because the deadline is armed only after a frame
	// begins.
	DefaultFrameTimeout = 15 * time.Second

	framePrefixLen = 4

	// protocolVersion is the hello's version. Builds that framed gob
	// sent no hello; they count as version 1. Version 3 added Push.Err;
	// version 4 ships VOs in format vVO2 (core.EncodeVO).
	protocolVersion = 4
)

// The frame kinds: the first payload byte. They are drawn from
// 0x80–0xF7, bytes no gob stream opens with (gob's leading uvarint is
// one byte below 0x80 or a negated byte count of 0xF8–0xFF), so a
// frame from a build that framed gob is told apart from a malformed
// one.
const (
	kindHello byte = 0xB0 + iota
	kindRequest
	kindResponse
	kindPush
)

// ErrFrameTooLarge reports a frame whose payload exceeds the local
// cap — inbound (announced length over the cap: the connection is
// dropped, the stream position after it is unrecoverable) or outbound
// (caught before any byte is written, so the connection stays usable
// and only the one message fails).
var ErrFrameTooLarge = errors.New("service: frame exceeds size cap")

// ErrIncompatible reports a peer that does not speak this build's
// protocol: a frame of an unknown kind (an older build's gob frame),
// or a hello naming another protocol version, an unknown accumulator
// construction or an unknown pairing preset. The connection is
// refused; retrying cannot help, so SP and clients upgrade together.
var ErrIncompatible = errors.New("service: peer speaks an incompatible wire protocol")

// errMalformed wraps every frame of a known kind that does not decode.
var errMalformed = errors.New("service: malformed frame")

// errBrokenWrite marks a frame write that failed partway: the stream
// position is lost and the connection must be abandoned. Pre-write
// failures (encoding, the outbound size check) deliberately do not
// wrap it.
var errBrokenWrite = errors.New("service: connection write failed")

// message is one frame's content.
type message interface {
	// kind is the frame's first payload byte.
	kind() byte
	// appendTo appends the content after the kind byte.
	appendTo(w *wire.Writer)
	// readFrom decodes the content after the kind byte; failures stay
	// on r.
	readFrom(r *wire.Reader)
}

// hello is the SP's first frame on every connection: the protocol
// version and the names of the deployment's accumulator construction
// and pairing preset, from which a client without an accumulator of
// its own builds the codec it decodes VOs with.
type hello struct {
	Version      uint16
	Construction string
	Preset       string
}

// newHello names acc's construction and pairing preset.
func newHello(acc accumulator.Accumulator) (*hello, error) {
	pr, err := accumulator.ParamsOf(acc)
	if err != nil {
		return nil, fmt.Errorf("service: hello: %w", err)
	}
	return &hello{Version: protocolVersion, Construction: acc.Name(), Preset: pr.Name}, nil
}

// codec checks the hello against this build and returns the codec of
// the names it carries, built from the client's own copy of the
// parameters: nothing numeric the SP sent is used.
func (h *hello) codec() (accumulator.Codec, error) {
	if h.Version != protocolVersion {
		return nil, fmt.Errorf("%w: SP speaks protocol version %d, this build %d", ErrIncompatible, h.Version, protocolVersion)
	}
	pr, err := pairing.Lookup(h.Preset)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrIncompatible, err)
	}
	codec, err := accumulator.NewCodec(h.Construction, pr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrIncompatible, err)
	}
	return codec, nil
}

func (*hello) kind() byte { return kindHello }

func (h *hello) appendTo(w *wire.Writer) {
	w.U16(h.Version)
	w.String32(h.Construction)
	w.String32(h.Preset)
}

func (h *hello) readFrom(r *wire.Reader) {
	h.Version = r.U16()
	h.Construction = r.String32()
	h.Preset = r.String32()
}

// Request is a client → SP message.
type Request struct {
	// Seq matches the request to its response. Clients use strictly
	// positive values.
	Seq uint64
	// Kind is "headers", "query", "subscribe", or "unsubscribe".
	Kind string
	// FromHeight is the first header wanted (Kind == "headers").
	FromHeight int
	// Query is the time-window query (Kind == "query") or the
	// continuous query to register (Kind == "subscribe"; its window
	// fields are ignored).
	Query core.Query
	// AllowDegraded lets a query answer omit unprovable sub-windows as
	// machine-readable Gaps (verified client-side by VerifyDegraded)
	// instead of failing outright when a shard is down.
	AllowDegraded bool
	// DeadlineMs propagates the client's remaining call budget in
	// milliseconds. The server derives a context from it so an
	// abandoned query stops consuming proof workers. Queries must carry
	// a positive value (the client clamps a sub-millisecond remainder
	// up to 1); the server rejects non-positive budgets instead of
	// reading them as "no deadline".
	DeadlineMs int64
	// SubID names the subscription to drop (Kind == "unsubscribe").
	SubID int
}

// flagDegraded is the one request flag bit. Bit 1 asked for the online
// batching (§6.3) every answer now uses; like any other bit, it is
// refused.
const flagDegraded byte = 2

func (*Request) kind() byte { return kindRequest }

func (q *Request) appendTo(w *wire.Writer) {
	w.U64(q.Seq)
	w.String32(q.Kind)
	w.Int(q.FromHeight)
	core.WriteQuery(w, q.Query)
	var flags byte
	if q.AllowDegraded {
		flags |= flagDegraded
	}
	w.U8(flags)
	w.U64(uint64(q.DeadlineMs))
	w.Int(q.SubID)
}

func (q *Request) readFrom(r *wire.Reader) {
	q.Seq = r.U64()
	q.Kind = r.String32()
	q.FromHeight = r.Int()
	q.Query = core.ReadQuery(r)
	flags := r.U8()
	if flags&^flagDegraded != 0 {
		r.Failf("unknown request flags %#x", flags)
	}
	q.AllowDegraded = flags&flagDegraded != 0
	q.DeadlineMs = int64(r.U64())
	q.SubID = r.Int()
}

// Response is an SP → client answer to the request with the same Seq.
// Its VOs stay canonical bytes until the caller decodes them with the
// codec it trusts (see Client.QueryParts and Client.QueryVerified).
type Response struct {
	// Seq echoes the request.
	Seq uint64
	// Err carries a processing error, empty on success.
	Err string
	// Code names the sentinel Err wraps (CodeNone if none), so a
	// remote caller's errors.Is sees what an in-process caller sees.
	Code Code
	// Headers answers a headers request.
	Headers []chain.Header
	// Parts answers a query request: the window's VOs, descending,
	// tiling the window. A strict answer is one part at every shard
	// count; a degraded one has one part per run between gaps.
	Parts []Part
	// Gaps lists the unproven sub-windows of a degraded answer
	// (AllowDegraded requests only). Parts and Gaps together tile the
	// window; the client's VerifyDegraded enforces exactly that.
	Gaps []core.Gap
	// SubID answers a subscribe request with the registered id.
	SubID int
	// Pub is the final pending span an unsubscribe flushes, if any.
	Pub *Push
}

// Part is one window part on the wire: core.WindowPart with its VO in
// canonical bytes.
type Part struct {
	Start, End int
	VO         []byte
}

// Push is a subscription publication on the wire: an unsolicited
// frame between responses, or the flush riding an unsubscribe's ack.
// It is subscribe.Publication with its VO in canonical bytes. A push
// with a non-empty Err carries no publication: it is the last frame of
// a subscription the SP dropped, and Err says why.
type Push struct {
	QueryID  int
	From, To int
	Err      string
	VO       []byte
}

func (*Response) kind() byte { return kindResponse }

func (p *Response) appendTo(w *wire.Writer) {
	w.U64(p.Seq)
	w.String32(p.Err)
	w.U8(byte(p.Code))
	w.U32(uint32(len(p.Headers)))
	for i := range p.Headers {
		w.Raw(p.Headers[i].Bytes())
	}
	w.U32(uint32(len(p.Parts)))
	for _, pt := range p.Parts {
		w.Int(pt.Start)
		w.Int(pt.End)
		w.Bytes32(pt.VO)
	}
	core.WriteGaps(w, p.Gaps)
	w.Int(p.SubID)
	if p.Pub == nil {
		w.U8(0)
		return
	}
	w.U8(1)
	p.Pub.appendTo(w)
}

func (p *Response) readFrom(r *wire.Reader) {
	p.Seq = r.U64()
	p.Err = r.String32()
	p.Code = Code(r.U8())
	if n := r.Count32(chain.HeaderSize); n > 0 {
		p.Headers = make([]chain.Header, n)
	}
	for i := range p.Headers {
		// Count32 has checked that every header's bytes are there.
		p.Headers[i], _ = chain.HeaderFromBytes(r.Take(chain.HeaderSize))
	}
	// A part costs ≥ 20 bytes: its bounds and VO length.
	if n := r.Count32(20); n > 0 {
		p.Parts = make([]Part, n)
	}
	for i := range p.Parts {
		p.Parts[i] = Part{Start: r.Int(), End: r.Int(), VO: r.Bytes32()}
	}
	p.Gaps = core.ReadGaps(r)
	p.SubID = r.Int()
	switch has := r.U8(); has {
	case 1:
		p.Pub = new(Push)
		p.Pub.readFrom(r)
	case 0:
	default:
		r.Failf("bad publication flag %d", has)
	}
}

func (*Push) kind() byte { return kindPush }

func (p *Push) appendTo(w *wire.Writer) {
	w.Int(p.QueryID)
	w.Int(p.From)
	w.Int(p.To)
	w.String32(p.Err)
	w.Raw(p.VO)
}

func (p *Push) readFrom(r *wire.Reader) {
	p.QueryID = r.Int()
	p.From = r.Int()
	p.To = r.Int()
	p.Err = r.String32()
	p.VO = r.Rest()
}

// encodeFrame renders m as prefix‖kind‖content.
func encodeFrame(m message) ([]byte, error) {
	w := wire.Writer{Buf: make([]byte, framePrefixLen, 64)}
	w.U8(m.kind())
	m.appendTo(&w)
	out := w.Buf
	n := len(out) - framePrefixLen
	if int64(n) > math.MaxUint32 {
		// The prefix would wrap and desynchronize the peer.
		return nil, fmt.Errorf("%w: %d bytes exceeds the 4-byte length prefix", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(out, uint32(n))
	return out, nil
}

// decodeFrame decodes one frame payload into m, rejecting a payload
// of another kind and trailing bytes (one frame is exactly one
// message).
func decodeFrame(body []byte, m message) error {
	if err := checkKind(body, m.kind()); err != nil {
		return err
	}
	r := wire.NewReader(body[1:], errMalformed)
	m.readFrom(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("service: decode %s: %w", kindName(m.kind()), err)
	}
	return nil
}

// decodeServerFrame decodes one SP → client payload: a hello, a
// response or a push.
func decodeServerFrame(body []byte) (message, error) {
	var m message
	if len(body) > 0 {
		switch body[0] {
		case kindHello:
			m = new(hello)
		case kindResponse:
			m = new(Response)
		case kindPush:
			m = new(Push)
		}
	}
	if m == nil {
		return nil, checkKind(body, kindResponse)
	}
	return m, decodeFrame(body, m)
}

// checkKind accepts a payload of kind want. A payload opening with a
// byte that is no kind of this protocol is a peer that speaks another
// one: ErrIncompatible.
func checkKind(body []byte, want byte) error {
	switch {
	case len(body) == 0:
		return fmt.Errorf("service: decode: %w: empty frame", errMalformed)
	case body[0] == want:
		return nil
	case body[0] < kindHello || body[0] > kindPush:
		return fmt.Errorf("%w: frame opens with byte %#02x, no frame kind of protocol version %d (a gob frame from an older build?)",
			ErrIncompatible, body[0], protocolVersion)
	}
	return fmt.Errorf("service: decode: %w: %s frame where a %s was expected", errMalformed, kindName(body[0]), kindName(want))
}

func kindName(k byte) string {
	switch k {
	case kindHello:
		return "hello"
	case kindRequest:
		return "request"
	case kindResponse:
		return "response"
	}
	return "push"
}

// frameConn wraps a connection with the length-prefixed framing, the
// size cap, and the partial-frame deadlines. Reads and writes are
// internally serialized (one reader, one writer at a time).
type frameConn struct {
	conn     net.Conn
	maxFrame int
	timeout  time.Duration

	rmu sync.Mutex
	wmu sync.Mutex
}

func newFrameConn(conn net.Conn, maxFrame int, timeout time.Duration) *frameConn {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if timeout <= 0 {
		timeout = DefaultFrameTimeout
	}
	return &frameConn{conn: conn, maxFrame: maxFrame, timeout: timeout}
}

// writeFrame encodes m and writes it as one frame (write).
func (f *frameConn) writeFrame(m message) error {
	frame, err := encodeFrame(m)
	if err != nil {
		return err
	}
	return f.write(frame)
}

// write sends one encoded frame under the write deadline. A payload
// over the local cap fails before any byte hits the wire (the peer
// would only drop the connection on it anyway), so the stream stays
// usable.
func (f *frameConn) write(frame []byte) error {
	if n := len(frame) - framePrefixLen; n > f.maxFrame {
		return fmt.Errorf("%w: outbound %d bytes (cap %d)", ErrFrameTooLarge, n, f.maxFrame)
	}
	f.wmu.Lock()
	defer f.wmu.Unlock()
	f.conn.SetWriteDeadline(time.Now().Add(f.timeout))
	defer f.conn.SetWriteDeadline(time.Time{})
	if _, err := f.conn.Write(frame); err != nil {
		return fmt.Errorf("%w: %v", errBrokenWrite, err)
	}
	return nil
}

// readFrame reads one frame and decodes it into m.
func (f *frameConn) readFrame(m message) error {
	body, err := f.readBody()
	if err != nil {
		return err
	}
	return decodeFrame(body, m)
}

// readBody reads one frame's payload. The read blocks indefinitely
// while the connection is idle; as soon as the first prefix byte
// arrives, the remainder of the frame must complete within the frame
// timeout.
func (f *frameConn) readBody() ([]byte, error) {
	f.rmu.Lock()
	defer f.rmu.Unlock()

	var prefix [framePrefixLen]byte
	// First byte: no deadline — idle is legitimate (a subscriber can
	// sit quietly between publications).
	if _, err := io.ReadFull(f.conn, prefix[:1]); err != nil {
		return nil, err
	}
	// A frame has started: the peer must finish it promptly.
	f.conn.SetReadDeadline(time.Now().Add(f.timeout))
	defer f.conn.SetReadDeadline(time.Time{})
	if _, err := io.ReadFull(f.conn, prefix[1:]); err != nil {
		return nil, fmt.Errorf("service: frame prefix: %w", err)
	}
	// Compare in 64 bits: on 32-bit platforms a uint32 length ≥ 2³¹
	// would truncate to a negative int and slip past the cap.
	n32 := binary.BigEndian.Uint32(prefix[:])
	if int64(n32) > int64(f.maxFrame) {
		return nil, fmt.Errorf("%w: %d bytes (cap %d)", ErrFrameTooLarge, n32, f.maxFrame)
	}
	body := make([]byte, int(n32))
	if _, err := io.ReadFull(f.conn, body); err != nil {
		return nil, fmt.Errorf("service: frame body: %w", err)
	}
	return body, nil
}
