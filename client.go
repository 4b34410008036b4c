package vchain

import (
	"context"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/service"
	"github.com/vchain-go/vchain/internal/subscribe"
)

// LightClient is the query user: it stores block headers only and
// verifies SP answers against them. A nil error from Verify certifies
// that the returned objects are exactly the correct result set
// (soundness and completeness, §3).
type LightClient struct {
	sys   *System
	light *chain.LightStore
}

// NewLightClient creates an empty light client for this system.
func (s *System) NewLightClient() *LightClient {
	return &LightClient{
		sys:   s,
		light: chain.NewLightStore(chain.Difficulty(s.cfg.Difficulty)),
	}
}

// SyncHeaders ingests headers, validating linkage and proof-of-work.
func (c *LightClient) SyncHeaders(headers []Header) error {
	return c.light.Sync(headers)
}

// Height returns the number of synced headers.
func (c *LightClient) Height() int { return c.light.Height() }

// StorageBits reports the client's header storage in bits (the light
// node cost metric of Table 1).
func (c *LightClient) StorageBits() int { return c.light.SizeBits() }

// WindowByTime resolves a timestamp window [ts, te] to block heights
// against the client's own headers (never trusting the SP's mapping).
// ok is false when no synced block falls inside the window.
func (c *LightClient) WindowByTime(ts, te int64) (start, end int, ok bool) {
	return c.light.WindowByTime(ts, te)
}

// verifier builds the client's batched verification engine.
func (c *LightClient) verifier() *core.Verifier {
	return &core.Verifier{Acc: c.sys.acc, Light: c.light}
}

// Verify checks a time-window answer — the parts must tile the query
// window — and returns the verified result set. It runs the batched
// verification engine: a structural walk collects every part's
// disjointness checks, then ONE randomized pairing-product batch
// resolves them across all cores — several times faster than checking
// each proof's pairings individually, with identical accept/reject
// behavior. A nil error certifies soundness and completeness.
func (c *LightClient) Verify(q Query, parts []WindowPart) ([]Object, error) {
	return c.verifier().VerifyWindowParts(q, parts)
}

// VerifyDegraded checks a degraded time-window answer: the parts must
// verify cryptographically AND, together with the declared gaps, tile
// the query window exactly — a gap can neither hide a covered height
// nor smuggle one in twice. When gaps are present the verified result
// comes back alongside ErrDegraded, so a partial answer is never
// mistaken for a complete one; with no gaps the behavior (and result)
// is exactly Verify.
func (c *LightClient) VerifyDegraded(q Query, parts []WindowPart, gaps []Gap) (*DegradedResult, error) {
	return c.verifier().VerifyDegraded(q, parts, gaps)
}

// VerifyPublication checks a subscription delivery for query q.
func (c *LightClient) VerifyPublication(q Query, pub *Publication) ([]Object, error) {
	v := &core.Verifier{Acc: c.sys.acc, Light: c.light}
	return subscribe.VerifyPublication(v, q, pub)
}

// VOSize reports a VO's transfer size in bytes (the paper's VO-size
// metric; result payloads excluded).
func (c *LightClient) VOSize(vo *VO) int { return vo.SizeBytes(c.sys.acc) }

// SPClient is a light client's connection to a remote SP (a node
// serving via Node.Serve). Every answer — one-shot or streamed —
// is verified locally against the client's own header store before it
// is returned; the SP is never trusted.
type SPClient struct {
	c   *LightClient
	cli *service.Client
}

// SPOptions tunes an SP connection's retry policy for idempotent
// requests (header sync, queries, stats). The zero value means no
// retries. A call's deadline is its context's.
type SPOptions struct {
	// RetryAttempts is the total tries per idempotent call (default 1:
	// no retries). Failed connections are re-dialed transparently
	// between attempts, after a jittered backoff; subscriptions are
	// never retried.
	RetryAttempts int
}

// DialSP connects this light client to a remote SP. The connection
// shares the client's header store: headers sync over it and every VO
// verifies against it. Optional SPOptions tune retries.
func (c *LightClient) DialSP(addr string, opts ...SPOptions) (*SPClient, error) {
	var cfg service.ClientConfig
	if len(opts) > 0 {
		cfg.Retry = service.RetryPolicy{Attempts: opts[0].RetryAttempts}
	}
	cli, err := service.Dial(addr, cfg)
	if err != nil {
		return nil, err
	}
	return &SPClient{c: c, cli: cli}, nil
}

// SyncHeaders fetches headers the client doesn't have yet (in bounded
// batches), validating linkage and proof-of-work locally.
func (s *SPClient) SyncHeaders() error {
	return s.cli.SyncHeaders(context.Background(), s.c.light)
}

// Query runs a remote time-window query and verifies the VO locally
// before returning the results (headers are synced first). The
// context's deadline bounds the round trip locally and propagates to
// the SP's proof walk. A nil error certifies soundness and
// completeness.
func (s *SPClient) Query(ctx context.Context, q Query) ([]Object, error) {
	if err := s.cli.SyncHeaders(ctx, s.c.light); err != nil {
		return nil, err
	}
	return s.cli.QueryVerified(ctx, q, true, s.c.verifier())
}

// QueryDegraded runs a remote time-window query in degraded-read mode
// and verifies the partial answer locally. Against an SP with a
// quarantined shard the verified provable sub-windows come back as a
// DegradedResult alongside ErrDegraded; with every shard healthy the
// result has no gaps and the error is nil. The gap claims are
// cryptographically checked to tile the window exactly with the
// proved parts — the SP cannot shrink the answer silently.
func (s *SPClient) QueryDegraded(ctx context.Context, q Query) (*DegradedResult, error) {
	if err := s.cli.SyncHeaders(ctx, s.c.light); err != nil {
		return nil, err
	}
	return s.cli.QueryVerifiedDegraded(ctx, q, s.c.verifier())
}

// Reconnects reports how many times the connection transparently
// re-dialed after a transport failure.
func (s *SPClient) Reconnects() int { return s.cli.Reconnects() }

// Retries reports how many idempotent-request retries were made.
func (s *SPClient) Retries() int { return s.cli.Retries() }

// Subscribe registers a continuous query at the SP and returns a
// stream of locally verified publications: read RemoteStream.C until
// it closes; Close to unsubscribe. Tampered publications surface as
// Delivery.Err wrapping ErrSoundness/ErrCompleteness and are never
// delivered as results.
func (s *SPClient) Subscribe(q Query) (*RemoteStream, error) {
	return s.cli.SubscribeCtx(context.Background(), q, service.SubscribeConfig{
		Acc:   s.c.sys.acc,
		Light: s.c.light,
	})
}

// Close disconnects (ending every subscription stream).
func (s *SPClient) Close() error { return s.cli.Close() }
