// Package service exposes a vChain SP over TCP and gives light clients
// a remote query and subscription interface.
//
// The wire protocol is length-prefixed gob (see frame.go): each frame
// is a 4-byte big-endian length followed by one self-contained gob
// value. Clients send Request frames; the server answers with Response
// frames echoing the request's Seq, and additionally pushes
// unsolicited Response frames with Seq == 0 carrying subscription
// Publications. The Seq multiplexing means a connection can have any
// number of requests in flight while publications stream in between
// them.
//
// The client never trusts the SP: headers are re-validated on sync and
// every VO — one-shot or pushed — is verified locally, so the
// transport needs no integrity of its own (matching the paper's threat
// model, §3). What the transport does need is resource hygiene against
// a malicious peer: frames are size-capped before decoding and a
// started frame must complete within a deadline, on both sides of the
// connection.
package service

import (
	"context"
	"errors"
	"fmt"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/proofs"
	"github.com/vchain-go/vchain/internal/shard"
	"github.com/vchain-go/vchain/internal/subscribe"
)

// Chain is what the server serves: a monolithic core.FullNode or a
// sharded shard.Node, indistinguishable to the wire protocol. The
// embedded ChainView feeds the subscription engine (publications are
// sourced from the owning shard via ADSAt); TimeWindowParts is the
// query entry point, and both node types answer it with
// core.FullNode's one planner: one part, the same bytes at every shard
// count. Clients verify it through Verifier.VerifyWindowParts.
type Chain interface {
	core.ChainView
	// Headers returns every block header. The front ends page header
	// sync with Height and HeaderAt instead (HeaderPage).
	Headers() []chain.Header
	// Height returns the chain height without copying any header.
	Height() int
	// TimeWindowParts answers a time-window query as a descending
	// part list tiling the window. The context carries the client's
	// propagated deadline into the proof walk.
	TimeWindowParts(ctx context.Context, q core.Query, batched bool) ([]core.WindowPart, error)
	// TimeWindowDegraded is the degraded-read entry point: the heights
	// of quarantined shards, or of a slot whose page-in fails, come
	// back as gaps instead of failing the query.
	TimeWindowDegraded(ctx context.Context, q core.Query, batched bool) ([]core.WindowPart, []core.Gap, error)
	// Acc exposes the accumulator public part.
	Acc() accumulator.Accumulator
	// BitWidth is the numeric attribute width of the deployment.
	BitWidth() int
	// ProofEngine is the node's one proof engine: it backs both the
	// time-window queries and the subscription engine.
	ProofEngine() *proofs.Engine
	// ProofStats snapshots that engine's counters, which cover the
	// whole node at every shard count.
	ProofStats() proofs.Stats
}

// HeaderPage reads at most limit headers from height from on with
// HeaderAt, so one page of a header sync costs O(limit) however long
// the chain is. It also returns the chain height the page was read
// under; a from outside [0, height] is an error.
func HeaderPage(c Chain, from, limit int) ([]chain.Header, int, error) {
	height := c.Height()
	if from < 0 || from > height {
		return nil, height, fmt.Errorf("from height %d outside [0, %d]", from, height)
	}
	page := make([]chain.Header, min(limit, height-from))
	for i := range page {
		var err error
		if page[i], err = c.HeaderAt(from + i); err != nil {
			return nil, height, err
		}
	}
	return page, height, nil
}

// Code is a wire error code: it names the sentinel an SP error wraps.
type Code uint8

// The wire error codes. CodeNone marks an error that wraps no sentinel
// (a malformed query, say): the caller's own fault.
const (
	CodeNone Code = iota
	CodeDeadline
	CodeCanceled
	CodeShardUnavailable
	CodeADSUnavailable
)

// sentinels maps each code to its sentinel, in the order CodeOf tests
// them. The gob server, the client's SPError and the HTTP gateway's
// status all read this one table.
var sentinels = [...]error{
	CodeDeadline:         context.DeadlineExceeded,
	CodeCanceled:         context.Canceled,
	CodeShardUnavailable: shard.ErrShardUnavailable,
	CodeADSUnavailable:   core.ErrADSUnavailable,
}

// CodeOf returns the code of the first sentinel err wraps, or CodeNone.
func CodeOf(err error) Code {
	for c, s := range sentinels {
		if s != nil && errors.Is(err, s) {
			return Code(c)
		}
	}
	return CodeNone
}

// Err returns the code's sentinel: nil for CodeNone and for a code
// this build does not know.
func (c Code) Err() error {
	if int(c) >= len(sentinels) {
		return nil
	}
	return sentinels[c]
}

// errResponse answers a request with err's text and code.
func errResponse(err error) *Response {
	return &Response{Err: err.Error(), Code: CodeOf(err)}
}

// Request is a client → SP message.
type Request struct {
	// Seq matches the request to its response. Clients use strictly
	// positive values; 0 is reserved for server-push frames.
	Seq uint64
	// Kind is "headers", "query", "subscribe", or "unsubscribe".
	Kind string
	// FromHeight is the first header wanted (Kind == "headers").
	FromHeight int
	// Query is the time-window query (Kind == "query") or the
	// continuous query to register (Kind == "subscribe"; its window
	// fields are ignored).
	Query core.Query
	// Batched requests online batch verification (§6.3).
	Batched bool
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

// Response is an SP → client message: either the answer to the request
// with the same Seq, or — with Seq == 0 — an asynchronous subscription
// publication.
type Response struct {
	// Seq echoes the request; 0 marks a server-push frame.
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
	Parts []core.WindowPart
	// Gaps lists the unproven sub-windows of a degraded answer
	// (AllowDegraded requests only). Parts and Gaps together tile the
	// window; the client's VerifyDegraded enforces exactly that.
	Gaps []core.Gap
	// SubID answers a subscribe request with the registered id.
	SubID int
	// Pub is a pushed publication (Seq == 0), or the final pending
	// span flushed by an unsubscribe.
	Pub *subscribe.Publication
}
