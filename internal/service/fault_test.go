package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/fault"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/shard"
)

// TestClientRetryReconnect injects a connection failure into the
// first request's write: the first attempt dies with a transport
// error, the retry policy re-dials, and the second attempt answers —
// transparently to the caller. (A failed first read would race the
// call: the reader goroutine reads as soon as the connection is up, so
// the client could re-dial before the call and never retry.)
func TestClientRetryReconnect(t *testing.T) {
	_, addr, _ := startServer(t)
	sched := fault.NewSchedule()
	sched.AddRules(fault.Rule{Op: fault.OpConnWrite, From: 1, To: 1, Fail: true})
	cli, err := Dial(addr, ClientConfig{
		Dialer: fault.Dialer(sched),
		Retry:  RetryPolicy{Attempts: 3, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	headers, err := cli.Headers(context.Background(), 0)
	if err != nil {
		t.Fatalf("retried call failed: %v", err)
	}
	if len(headers) != 3 {
		t.Fatalf("headers %d, want 3", len(headers))
	}
	if got := cli.Reconnects(); got != 1 {
		t.Fatalf("reconnects %d, want 1", got)
	}
	if got := cli.Retries(); got < 1 {
		t.Fatalf("retries %d, want >= 1", got)
	}
	if sched.InjectedTotal() == 0 {
		t.Fatal("fault schedule never fired")
	}
	// The reconnected generation serves everything as usual.
	if _, err := cli.Headers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}

// TestDialCtxDeadlineBoundsFirstDialOnly: a DialCtx deadline tightens
// the first dial, and a later reconnect gets the full 10 s again
// rather than whatever the dialing context had left.
func TestDialCtxDeadlineBoundsFirstDialOnly(t *testing.T) {
	_, addr, _ := startServer(t)
	sched := fault.NewSchedule()
	sched.AddRules(fault.Rule{Op: fault.OpConnWrite, From: 1, To: 1, Fail: true})
	inner := fault.Dialer(sched)
	var (
		mu       sync.Mutex
		timeouts []time.Duration
	)
	record := func(addr string, timeout time.Duration) (net.Conn, error) {
		mu.Lock()
		timeouts = append(timeouts, timeout)
		mu.Unlock()
		return inner(addr, timeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	cli, err := DialCtx(ctx, addr, ClientConfig{
		Dialer: record,
		Retry:  RetryPolicy{Attempts: 3, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Headers(context.Background(), 0); err != nil {
		t.Fatalf("retried call failed: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(timeouts) != 2 {
		t.Fatalf("dialed %d times, want the first dial and one reconnect", len(timeouts))
	}
	if timeouts[0] > 2*time.Second {
		t.Fatalf("first dial timeout %v, want at most the context's 2s", timeouts[0])
	}
	if timeouts[1] != 10*time.Second {
		t.Fatalf("reconnect timeout %v, want the full 10s", timeouts[1])
	}
}

// TestClientNoRetryOnSPError pins the idempotency boundary: an error
// the SP itself returned is an answer, not a transport fault, and must
// not be retried no matter the policy.
func TestClientNoRetryOnSPError(t *testing.T) {
	_, addr, _ := startServer(t)
	cli, err := Dial(addr, ClientConfig{Retry: RetryPolicy{Attempts: 5, BaseBackoff: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_, err = cli.Headers(context.Background(), -1)
	var spe *SPError
	if !errors.As(err, &spe) {
		t.Fatalf("err = %v, want *SPError", err)
	}
	if got := cli.Retries(); got != 0 {
		t.Fatalf("SP error was retried %d times", got)
	}
	if got := cli.Reconnects(); got != 0 {
		t.Fatalf("SP error triggered %d reconnects", got)
	}
}

// TestClientContextDeadline pins deadline behavior: an already-expired
// context fails immediately with the context error and is never
// retried (the caller's budget is spent; more attempts can't help).
func TestClientContextDeadline(t *testing.T) {
	_, addr, _ := startServer(t)
	cli, err := Dial(addr, ClientConfig{Retry: RetryPolicy{Attempts: 5, BaseBackoff: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := cli.Headers(ctx, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if got := cli.Retries(); got != 0 {
		t.Fatalf("expired context was retried %d times", got)
	}
}

// startDegradedServer serves a 2-shard node (Band 1: owner(h) = h%2)
// with shard 1 quarantined, so a full-window query has verifiable
// parts at even heights and gaps at odd ones.
func startDegradedServer(t *testing.T) (string, *shard.Node, accumulator.Accumulator) {
	t.Helper()
	acc := accumulator.KeyGenCon2Deterministic(pairing.Toy(), 512, accumulator.HashEncoder{Q: 512}, []byte("svc"))
	b := &core.Builder{Acc: acc, Mode: core.ModeIntra, Width: 4}
	node := shard.New(0, b, shard.Options{Shards: 2, Band: 1})
	for i := 0; i < 4; i++ {
		objs := []chain.Object{
			{ID: chain.ObjectID(i*10 + 1), TS: int64(i), V: []int64{4}, W: []string{"sedan", "benz"}},
			{ID: chain.ObjectID(i*10 + 2), TS: int64(i), V: []int64{9}, W: []string{"van", "audi"}},
		}
		if _, err := node.MineBlock(objs, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := node.Quarantine(1, errors.New("test: disk fenced")); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(node)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); node.Close() })
	return addr, node, acc
}

// TestRemoteDegradedQuery round-trips a degraded read over the wire: a
// strict query fails on the quarantined shard, while AllowDegraded
// returns the provable parts plus exactly the quarantined shard's
// heights as gaps — and the pair verifies client-side to a
// DegradedResult alongside ErrDegraded.
func TestRemoteDegradedQuery(t *testing.T) {
	addr, _, acc := startDegradedServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	light := shardedLight(t, cli)
	q := core.Query{StartBlock: 0, EndBlock: 3, Bool: core.CNF{core.KeywordClause("sedan")}, Width: 4}

	// Strict mode: the quarantined shard fails the whole query.
	if _, err := cli.QueryParts(context.Background(), q, true); err == nil ||
		!strings.Contains(err.Error(), "unavailable") {
		t.Fatalf("strict query err = %v, want shard-unavailable SP error", err)
	}

	parts, gaps, err := cli.QueryDegraded(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	wantGaps := []core.Gap{{Start: 3, End: 3}, {Start: 1, End: 1}}
	if len(gaps) != len(wantGaps) || gaps[0] != wantGaps[0] || gaps[1] != wantGaps[1] {
		t.Fatalf("gaps = %v, want %v", gaps, wantGaps)
	}
	ver := &core.Verifier{Acc: acc, Light: light}
	res, err := ver.VerifyDegraded(q, parts, gaps)
	if !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("verify err = %v, want ErrDegraded", err)
	}
	if res.Covered() != 2 || len(res.Objects) != 2 {
		t.Fatalf("degraded result covers %d blocks with %d objects, want 2 and 2", res.Covered(), len(res.Objects))
	}

	// The one-call path wraps the same outcome.
	res2, err := cli.QueryVerifiedDegraded(context.Background(), q, &core.Verifier{Acc: acc, Light: light})
	if !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("QueryVerifiedDegraded err = %v, want ErrDegraded", err)
	}
	if res2.Covered() != res.Covered() || len(res2.Objects) != len(res.Objects) {
		t.Fatal("one-call degraded path diverges from manual verify")
	}
}

// TestDegradedTypedErrorOverGob pins that a strict query failing on a
// quarantined shard surfaces over the wire as it does in process:
// errors.Is(err, shard.ErrShardUnavailable) holds, the SPError carries
// the code, and the answer is final (never retried).
func TestDegradedTypedErrorOverGob(t *testing.T) {
	addr, _, _ := startDegradedServer(t)
	cli, err := Dial(addr, ClientConfig{Retry: RetryPolicy{Attempts: 3, BaseBackoff: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	q := core.Query{StartBlock: 0, EndBlock: 3, Bool: core.CNF{core.KeywordClause("sedan")}, Width: 4}
	_, err = cli.QueryParts(context.Background(), q, true)
	if !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("strict query err = %v, want errors.Is ErrShardUnavailable", err)
	}
	var spe *SPError
	if !errors.As(err, &spe) || spe.Code != CodeShardUnavailable {
		t.Fatalf("strict query err = %#v, want an SPError with CodeShardUnavailable", err)
	}
	if got := cli.Retries(); got != 0 {
		t.Fatalf("SP error retried %d times", got)
	}
	// Every code round-trips through its sentinel; an unknown code from
	// a newer SP unwraps to nothing.
	for c := CodeNone + 1; c.Err() != nil; c++ {
		if got := CodeOf(fmt.Errorf("wrapped: %w", c.Err())); got != c {
			t.Fatalf("CodeOf(%v) = %d, want %d", c.Err(), got, c)
		}
	}
	if CodeOf(errors.New("bad query")) != CodeNone || Code(200).Err() != nil {
		t.Fatal("an unknown error or code must map to nothing")
	}
}

// TestRemoteDegradedTamperRejected pins that degraded mode weakens
// nothing: a tampered part in a gapped answer still fails verification
// with a soundness/completeness error, never a silent partial result.
func TestRemoteDegradedTamperRejected(t *testing.T) {
	addr, _, acc := startDegradedServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	light := shardedLight(t, cli)
	q := core.Query{StartBlock: 0, EndBlock: 3, Bool: core.CNF{core.KeywordClause("sedan")}, Width: 4}

	parts, gaps, err := cli.QueryDegraded(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Undeclare a gap: claim the surviving parts cover the window.
	ver := &core.Verifier{Acc: acc, Light: light}
	if _, err := ver.VerifyDegraded(q, parts, gaps[:1]); !errors.Is(err, core.ErrCompleteness) {
		t.Fatalf("dropped gap: err = %v, want ErrCompleteness", err)
	}
	// Tamper a result object inside a proved part.
	tampered := tamperFirstResult(parts)
	if !tampered {
		t.Fatal("no result object found to tamper")
	}
	if _, err := ver.VerifyDegraded(q, parts, gaps); !errors.Is(err, core.ErrSoundness) && !errors.Is(err, core.ErrCompleteness) {
		t.Fatalf("tampered part: err = %v, want soundness/completeness rejection", err)
	}
}

// tamperFirstResult flips a value in the first result-carrying VO node
// it finds, exactly like a cheating SP altering an object in flight.
func tamperFirstResult(parts []core.WindowPart) bool {
	var walk func(n *core.NodeVO) bool
	walk = func(n *core.NodeVO) bool {
		if n == nil {
			return false
		}
		if n.Kind == core.KindResult && n.Obj != nil && len(n.Obj.V) > 0 {
			n.Obj.V[0] += 3
			return true
		}
		return walk(n.Left) || walk(n.Right)
	}
	for pi := range parts {
		for bi := range parts[pi].VO.Blocks {
			if walk(parts[pi].VO.Blocks[bi].Tree) {
				return true
			}
		}
	}
	return false
}
