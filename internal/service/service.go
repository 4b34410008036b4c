// Package service exposes a vChain SP over TCP and gives light clients
// a remote query and subscription interface.
//
// The wire protocol is length-prefixed binary frames (see frame.go):
// each frame is a 4-byte big-endian length followed by one message of
// a fixed layout. The SP opens every connection with a hello naming
// the protocol version, the accumulator construction and the pairing
// preset. Clients then send Request frames; the server answers with
// Response frames echoing the request's Seq, and additionally pushes
// unsolicited Push frames carrying subscription publications. The Seq
// multiplexing means a connection can have any number of requests in
// flight while publications stream in between them. Every VO in a
// frame is exactly its canonical core.EncodeVO bytes.
//
// The client never trusts the SP: headers are re-validated on sync and
// every VO — one-shot or pushed — is verified locally, so the
// transport needs no integrity of its own (matching the paper's threat
// model, §3). The hello only names parameters the client already has:
// the client decodes with its own copy of them and refuses a name it
// does not know. What the transport does need is resource hygiene
// against a malicious peer: frames are size-capped before decoding and
// a started frame must complete within a deadline, on both sides of
// the connection.
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
// them. The TCP server, the client's SPError and the HTTP gateway's
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
