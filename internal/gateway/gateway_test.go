package gateway

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/fault"
	"github.com/vchain-go/vchain/internal/service"
	"github.com/vchain-go/vchain/internal/shard"
	"github.com/vchain-go/vchain/internal/storage"
)

const testWidth = 4

func testAcc(t testing.TB) accumulator.Accumulator {
	t.Helper()
	pr := pairing.Toy()
	return accumulator.KeyGenCon2Deterministic(pr, 512, accumulator.HashEncoder{Q: 512}, []byte("gateway"))
}

func testBuilder(acc accumulator.Accumulator) *core.Builder {
	return &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: 2, Width: testWidth}
}

// carObjects mirrors the core e2e fixture: four rental cars per block.
func carObjects(base uint64) []chain.Object {
	return []chain.Object{
		{ID: chain.ObjectID(base + 1), TS: int64(base), V: []int64{3}, W: []string{"sedan", "benz"}},
		{ID: chain.ObjectID(base + 2), TS: int64(base), V: []int64{5}, W: []string{"sedan", "audi"}},
		{ID: chain.ObjectID(base + 3), TS: int64(base), V: []int64{7}, W: []string{"van", "benz"}},
		{ID: chain.ObjectID(base + 4), TS: int64(base), V: []int64{9}, W: []string{"van", "bmw"}},
	}
}

func buildNode(t testing.TB, blocks int) *core.FullNode {
	t.Helper()
	node := core.NewFullNode(0, testBuilder(testAcc(t)))
	for i := 0; i < blocks; i++ {
		if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatalf("mining block %d: %v", i, err)
		}
	}
	return node
}

// startGateway mounts a gateway over an httptest server and returns
// its base URL plus the gateway for white-box assertions.
func startGateway(t testing.TB, node service.Chain, cfg Config) (*Gateway, string) {
	t.Helper()
	g, err := New(node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return g, srv.URL
}

func do(t testing.TB, method, url, key string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func queryBody(start, end int, degraded bool) map[string]any {
	return map[string]any{
		"startBlock":    start,
		"endBlock":      end,
		"keywords":      [][]string{{"sedan"}, {"benz", "bmw"}},
		"allowDegraded": degraded,
	}
}

// TestUnknownKeyUnauthorized: with tenants provisioned, a missing or
// unknown API key is rejected 401 on every /v1 endpoint while
// /metrics and /healthz stay open for scrapers.
func TestUnknownKeyUnauthorized(t *testing.T) {
	node := buildNode(t, 4)
	g, base := startGateway(t, node, Config{
		Tenants: []Tenant{{Name: "alice", Key: "k-alice"}},
	})

	for _, key := range []string{"", "k-wrong"} {
		resp, body := do(t, "GET", base+"/v1/headers", key, nil)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("key %q: status %d, want 401 (body %s)", key, resp.StatusCode, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("401 body %q not a JSON error", body)
		}
	}
	if got := g.mUnauthorized.Value(); got != 2 {
		t.Fatalf("unauthorized counter = %d, want 2", got)
	}

	// Scrape endpoints need no key.
	for _, path := range []string{"/metrics", "/healthz"} {
		resp, _ := do(t, "GET", base+path, "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s without key: status %d, want 200", path, resp.StatusCode)
		}
	}

	// The right key works.
	resp, _ := do(t, "GET", base+"/v1/headers", "k-alice", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid key: status %d, want 200", resp.StatusCode)
	}
}

// TestRateLimited: a burst-1 tenant gets exactly one request through,
// then 429 with a Retry-After hint, as does a tenant on the gateway's
// default TenantRate/TenantBurst; an unlimited tenant on the same
// gateway is unaffected.
func TestRateLimited(t *testing.T) {
	node := buildNode(t, 4)
	g, base := startGateway(t, node, Config{
		Tenants: []Tenant{
			{Name: "slow", Key: "k-slow", Rate: 0.5, Burst: 1},
			{Name: "ops", Key: "k-ops", Rate: -1},
			{Name: "dflt", Key: "k-dflt"}, // inherits TenantRate/TenantBurst
		},
		TenantRate:  0.5,
		TenantBurst: 1,
	})

	resp, _ := do(t, "GET", base+"/v1/stats", "k-slow", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", resp.StatusCode)
	}
	resp, body := do(t, "GET", base+"/v1/stats", "k-slow", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 carried Retry-After %q, want a positive hint", ra)
	}
	if got := g.mRateLimited.With("slow").Value(); got != 1 {
		t.Fatalf("rate-limited counter for slow = %d, want 1", got)
	}
	for i, want := range []int{http.StatusOK, http.StatusTooManyRequests} {
		if resp, _ := do(t, "GET", base+"/v1/stats", "k-dflt", nil); resp.StatusCode != want {
			t.Fatalf("default-rate tenant request %d: status %d, want %d", i, resp.StatusCode, want)
		}
	}

	// The unlimited tenant keeps flowing.
	for i := 0; i < 5; i++ {
		resp, _ := do(t, "GET", base+"/v1/stats", "k-ops", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ops request %d: status %d, want 200", i, resp.StatusCode)
		}
	}
}

// TestGlobalRateLimit: the global bucket caps the whole gateway even
// when every tenant is individually unlimited.
func TestGlobalRateLimit(t *testing.T) {
	node := buildNode(t, 4)
	_, base := startGateway(t, node, Config{
		Tenants:    []Tenant{{Name: "a", Key: "ka", Rate: -1}, {Name: "b", Key: "kb", Rate: -1}},
		GlobalRate: 0.5,
	})
	resp, _ := do(t, "GET", base+"/v1/stats", "ka", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: %d, want 200", resp.StatusCode)
	}
	resp, _ = do(t, "GET", base+"/v1/stats", "kb", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second (other tenant, global bucket dry): %d, want 429", resp.StatusCode)
	}
}

// TestInflightShedding: with the inflight cap saturated, new requests
// shed fail-fast with 429 instead of queueing.
func TestInflightShedding(t *testing.T) {
	node := buildNode(t, 4)
	g, base := startGateway(t, node, Config{MaxInflight: 1})

	release, ok := g.adm.acquire()
	if !ok {
		t.Fatal("could not occupy the only inflight slot")
	}
	resp, _ := do(t, "GET", base+"/v1/stats", "", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated gateway: status %d, want 429", resp.StatusCode)
	}
	if g.mShed.Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", g.mShed.Value())
	}
	release()
	resp, _ = do(t, "GET", base+"/v1/stats", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", resp.StatusCode)
	}
}

// TestQueryExternallyVerifiable: the JSON answer's base64 VOs decode
// to canonical VO bytes that an external verifier — holding only the
// headers and public accumulator — accepts, and the results match a
// direct node query.
func TestQueryExternallyVerifiable(t *testing.T) {
	const blocks = 8
	node := buildNode(t, blocks)
	_, base := startGateway(t, node, Config{})

	resp, body := do(t, "POST", base+"/v1/query", "", queryBody(0, blocks-1, false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d (body %s)", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("bad query response: %v", err)
	}
	if qr.Degraded || len(qr.Gaps) != 0 {
		t.Fatalf("strict query reported degraded=%v gaps=%v", qr.Degraded, qr.Gaps)
	}
	if len(qr.Parts) == 0 {
		t.Fatal("no parts in answer")
	}

	// Rebuild WindowParts from the wire form and verify externally.
	light := chain.NewLightStore(0)
	if err := light.Sync(node.Store.Headers()); err != nil {
		t.Fatal(err)
	}
	ver := &core.Verifier{Acc: node.Acc(), Light: light}
	q := core.Query{
		StartBlock: 0, EndBlock: blocks - 1,
		Bool:  core.CNF{core.KeywordClause("sedan"), core.KeywordClause("benz", "bmw")},
		Width: testWidth,
	}
	var parts []core.WindowPart
	for _, p := range qr.Parts {
		raw, err := base64.StdEncoding.DecodeString(p.VO)
		if err != nil {
			t.Fatalf("part [%d,%d]: bad base64: %v", p.Start, p.End, err)
		}
		vo, err := core.DecodeVO(node.Acc(), raw)
		if err != nil {
			t.Fatalf("part [%d,%d]: bad VO bytes: %v", p.Start, p.End, err)
		}
		parts = append(parts, core.WindowPart{Start: p.Start, End: p.End, VO: vo})
	}
	got, err := ver.VerifyWindowParts(q, parts)
	if err != nil {
		t.Fatalf("external verification of the HTTP answer failed: %v", err)
	}

	want, err := node.TimeWindowParts(context.Background(), q, false)
	if err != nil {
		t.Fatal(err)
	}
	var wantObjs []chain.Object
	for _, p := range want {
		wantObjs = append(wantObjs, p.VO.Results()...)
	}
	if !reflect.DeepEqual(got, wantObjs) {
		t.Fatalf("verified results %v != direct node results %v", got, wantObjs)
	}
	if len(qr.Results) != len(wantObjs) {
		t.Fatalf("JSON results %d != node results %d", len(qr.Results), len(wantObjs))
	}
}

// lockedBuffer is a log sink the gateway's handler goroutines and the
// test can share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestQueryValidation rejects malformed bodies and windows with 400,
// and logs each refusal through Config.Logger.
func TestQueryValidation(t *testing.T) {
	node := buildNode(t, 4)
	var logs lockedBuffer
	_, base := startGateway(t, node, Config{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	cases := []struct {
		name string
		body any
	}{
		{"inverted window", map[string]any{"startBlock": 3, "endBlock": 1, "keywords": [][]string{{"x"}}}},
		{"beyond height", map[string]any{"startBlock": 0, "endBlock": 99, "keywords": [][]string{{"x"}}}},
		{"no condition", map[string]any{"startBlock": 0, "endBlock": 1}},
		{"empty clause", map[string]any{"startBlock": 0, "endBlock": 1, "keywords": [][]string{{}}}},
		{"unknown field", map[string]any{"startBlock": 0, "endBlock": 1, "keywords": [][]string{{"x"}}, "bogus": 1}},
		{"lopsided range", map[string]any{"startBlock": 0, "endBlock": 1, "range": map[string]any{"lo": []int64{1}, "hi": []int64{}}}},
	}
	for _, tc := range cases {
		resp, body := do(t, "POST", base+"/v1/query", "", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
		}
	}
	// Every refusal reaches the request log; a line is written once
	// its handler returns, which may trail the response.
	for deadline := time.Now().Add(5 * time.Second); strings.Count(logs.String(), "code=400") < len(cases); {
		if time.Now().After(deadline) {
			t.Fatalf("request log %q lacks the %d refusals", logs.String(), len(cases))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEmptyClauseRefusedAtEveryFrontDoor: core.Query.CNF is the one
// validation of a query's condition, so a query with an empty OR-clause
// is refused with core's error in process, over TCP, over HTTP, and at
// subscribe.
func TestEmptyClauseRefusedAtEveryFrontDoor(t *testing.T) {
	node := buildNode(t, 4)
	q := core.Query{StartBlock: 0, EndBlock: 3, Bool: core.CNF{core.KeywordClause()}, Width: testWidth}
	_, cnfErr := q.CNF()
	if cnfErr == nil {
		t.Fatal("core accepts an empty OR-clause")
	}
	want := cnfErr.Error()

	srv := service.NewServer(node)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := service.Dial(addr, service.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, base := startGateway(t, node, Config{})
	ctx := context.Background()

	for _, tc := range []struct {
		door   string
		refuse func() error
	}{
		{"in-process TimeWindowParts", func() error {
			_, err := node.TimeWindowParts(ctx, q, false)
			return err
		}},
		{"tcp QueryParts", func() error {
			_, err := cli.QueryParts(ctx, q, false)
			return err
		}},
		{"HTTP /v1/query", func() error {
			resp, body := do(t, "POST", base+"/v1/query", "", map[string]any{
				"startBlock": q.StartBlock, "endBlock": q.EndBlock, "keywords": [][]string{{}},
			})
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("HTTP status %d, want 400", resp.StatusCode)
			}
			return fmt.Errorf("%s", body)
		}},
		{"tcp SubscribeCtx", func() error {
			sub, err := cli.SubscribeCtx(ctx, q, service.SubscribeConfig{Acc: node.Acc(), Light: chain.NewLightStore(0)})
			if sub != nil {
				sub.Close()
			}
			return err
		}},
	} {
		if err := tc.refuse(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want core's %q", tc.door, err, want)
		}
	}
}

// faultySharded builds a 4-shard node and quarantines the target
// shard, mirroring the shard package's acceptance fixture.
func faultySharded(t *testing.T, blocks, target int) *shard.Node {
	t.Helper()
	sched := fault.NewSchedule()
	node := shard.New(0, testBuilder(testAcc(t)), shard.Options{
		Shards:           4,
		Band:             2,
		Workers:          4,
		FailureThreshold: 3,
		BreakerCooldown:  time.Hour,
		WrapBackend: func(id int, b storage.Backend) storage.Backend {
			if id == target {
				return fault.WrapBackend(b, sched)
			}
			return b
		},
	})
	t.Cleanup(func() { node.Close() })
	for i := 0; i < blocks; i++ {
		if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatalf("mining block %d: %v", i, err)
		}
	}
	// Banded round-robin routing: height h belongs to (h/band)%shards.
	owner := func(h int) int { return (h / 2) % 4 }
	for owner(node.Height()) != target {
		h := node.Height()
		if _, err := node.MineBlock(carObjects(uint64(h*10)), int64(1000+h)); err != nil {
			t.Fatalf("advancing to shard %d: %v", target, err)
		}
	}
	sched.NextFailures(fault.OpAppend, 100)
	for i := 0; i < 3; i++ {
		if _, err := node.MineBlock(carObjects(9000), 99999); err == nil {
			t.Fatalf("mine attempt %d succeeded with faults armed", i)
		}
	}
	if got := node.Health(target); got != shard.Quarantined {
		t.Fatalf("shard %d health %v, want quarantined", target, got)
	}
	return node
}

// TestDegradedHTTPQuery: over a sharded node with a quarantined shard,
// a strict HTTP query answers 503 pointing at the degraded path, and
// an allowDegraded query returns 200 with exactly the sick shard's
// heights as gaps — and the shard health shows on /metrics and
// /v1/stats.
func TestDegradedHTTPQuery(t *testing.T) {
	const blocks, target = 16, 2
	node := faultySharded(t, blocks, target)
	g, base := startGateway(t, node, Config{})

	resp, body := do(t, "POST", base+"/v1/query", "", queryBody(0, blocks-1, false))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("strict query over sick shard: status %d, want 503 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "allowDegraded") {
		t.Fatalf("503 body %q does not advertise the degraded path", body)
	}

	resp, body = do(t, "POST", base+"/v1/query", "", queryBody(0, blocks-1, true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query: status %d (body %s)", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Degraded {
		t.Fatal("answer over a quarantined shard not marked degraded")
	}
	// Band 2, 4 shards, 16 blocks: shard 2 owns {4,5} and {12,13}.
	wantGaps := []gapJSON{{Start: 12, End: 13}, {Start: 4, End: 5}}
	if !reflect.DeepEqual(qr.Gaps, wantGaps) {
		t.Fatalf("gaps = %v, want %v (exactly the quarantined shard's heights)", qr.Gaps, wantGaps)
	}
	if g.mDegraded.Value() != 1 {
		t.Fatalf("degraded counter = %d, want 1", g.mDegraded.Value())
	}
	if g.mGapBlocks.Value() != 4 {
		t.Fatalf("gap-blocks counter = %d, want 4", g.mGapBlocks.Value())
	}

	// Shard health is visible to scrapers and JSON clients.
	resp, body = do(t, "GET", base+"/metrics", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	metrics := string(body)
	for _, want := range []string{
		`vchain_shard_health{shard="2"} 2`,
		`vchain_shard_up{shard="2"} 0`,
		`vchain_shard_up{shard="0"} 1`,
		"vchain_gateway_degraded_answers_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	_, body = do(t, "GET", base+"/v1/stats", "", nil)
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("stats shards = %d, want 4", len(st.Shards))
	}
	if st.Shards[target].Health != "quarantined" {
		t.Fatalf("shard %d health %q, want quarantined", target, st.Shards[target].Health)
	}
}

// TestStorageFaultHTTPQuery: over a reopened 2-shard node whose shard 1
// fails every page-in, the failure is the server's, not the caller's —
// a strict query answers 503 pointing at the degraded path, and an
// allowDegraded query returns 200 with exactly that shard's heights as
// gaps.
func TestStorageFaultHTTPQuery(t *testing.T) {
	const blocks, target = 8, 1
	sched := fault.NewSchedule()
	opts := shard.Options{
		Shards:  2,
		Band:    2,
		Workers: 2,
		WrapBackend: func(id int, b storage.Backend) storage.Backend {
			if id == target {
				return fault.WrapBackend(b, sched)
			}
			return b
		},
	}
	b, dir := testBuilder(testAcc(t)), t.TempDir()
	node, _, err := shard.Open(0, b, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocks; i++ {
		if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatalf("mining block %d: %v", i, err)
		}
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	// The reopen replays block halves only; every ADS pages in on
	// demand, and shard 1's page-ins now fail.
	node, _, err = shard.Open(0, b, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	sched.NextFailures(fault.OpRead, 1000)
	_, base := startGateway(t, node, Config{})

	resp, body := do(t, "POST", base+"/v1/query", "", queryBody(0, blocks-1, false))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("strict query over a failing shard: status %d, want 503 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "allowDegraded") {
		t.Fatalf("503 body %q does not advertise the degraded path", body)
	}

	resp, body = do(t, "POST", base+"/v1/query", "", queryBody(0, blocks-1, true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query: status %d (body %s)", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	// Band 2, 2 shards, 8 blocks: shard 1 owns {2,3} and {6,7}.
	wantGaps := []gapJSON{{Start: 6, End: 7}, {Start: 2, End: 3}}
	if !qr.Degraded || !reflect.DeepEqual(qr.Gaps, wantGaps) {
		t.Fatalf("degraded=%v gaps=%v, want gaps %v (exactly the failing shard's heights)", qr.Degraded, qr.Gaps, wantGaps)
	}
}

// TestMetricsExposition: the scrape output is well-formed text
// exposition — every family has HELP and TYPE lines, request counters
// carry tenant/endpoint/code labels, latency histograms have
// cumulative le buckets with _sum/_count, and the idle proof cache's
// hit ratio renders 0, never NaN.
func TestMetricsExposition(t *testing.T) {
	node := buildNode(t, 4)
	g, base := startGateway(t, node, Config{
		Tenants: []Tenant{{Name: "alice", Key: "k-alice"}},
	})

	do(t, "GET", base+"/v1/headers", "k-alice", nil)
	do(t, "POST", base+"/v1/query", "k-alice", queryBody(0, 3, false))

	resp, body := do(t, "GET", base+"/metrics", "", nil)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		"# HELP vchain_gateway_requests_total",
		"# TYPE vchain_gateway_requests_total counter",
		`vchain_gateway_requests_total{tenant="alice",endpoint="headers",code="200"} 1`,
		`vchain_gateway_requests_total{tenant="alice",endpoint="query",code="200"} 1`,
		"# TYPE vchain_gateway_request_seconds histogram",
		`vchain_gateway_request_seconds_bucket{tenant="alice",endpoint="query",le="+Inf"} 1`,
		`vchain_gateway_request_seconds_count{tenant="alice",endpoint="query"} 1`,
		"# TYPE vchain_proofs_total counter",
		"vchain_proof_cache_hit_ratio",
		"vchain_chain_height 4",
		`vchain_gateway_vo_bytes_total{tenant="alice"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Fatal("/metrics contains NaN")
	}

	// The standalone scrape listener (vchain-sp -metrics) serves the
	// same families and none of the query API.
	ms := httptest.NewServer(g.MetricsHandler())
	defer ms.Close()
	if resp, body := do(t, "GET", ms.URL+"/metrics", "", nil); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(body), "vchain_chain_height 4") {
		t.Fatalf("scrape listener /metrics: %d %q", resp.StatusCode, body)
	}
	if resp, _ := do(t, "POST", ms.URL+"/v1/query", "k-alice", queryBody(0, 3, false)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("scrape listener /v1/query: %d, want 404", resp.StatusCode)
	}
}

// TestExpoNaNGuard: degenerate sample values render as 0 rather than
// poisoning the scrape.
func TestExpoNaNGuard(t *testing.T) {
	var buf bytes.Buffer
	e := &Expo{w: &buf}
	e.Sample("x", nil, math.NaN())
	e.Sample("y", nil, math.Inf(1))
	out := buf.String()
	if out != "x 0\ny 0\n" {
		t.Fatalf("NaN/Inf rendered %q, want zeros", out)
	}
}

// TestLoadTenants round-trips the provisioning file format.
func TestLoadTenants(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/tenants"
	content := "# provisioning\nalice:k-alice:50:100\nbob:k-bob:10\n\nops:k-ops:-1  # unlimited\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ts, err := LoadTenants(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Tenant{
		{Name: "alice", Key: "k-alice", Rate: 50, Burst: 100},
		{Name: "bob", Key: "k-bob", Rate: 10},
		{Name: "ops", Key: "k-ops", Rate: -1},
	}
	if !reflect.DeepEqual(ts, want) {
		t.Fatalf("LoadTenants = %+v, want %+v", ts, want)
	}

	if err := os.WriteFile(path, []byte("broken-line-no-colon\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTenants(path); err == nil {
		t.Fatal("malformed tenants file accepted")
	}
	// A non-finite rate is refused with its line: NaN would refuse
	// every request, and unlimited is spelled -1, not Inf.
	for _, rate := range []string{"NaN", "Inf", "-Inf", "+Inf"} {
		if err := os.WriteFile(path, []byte("bob:k-bob:10\nalice:k-a:"+rate+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadTenants(path); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("rate %s: err = %v, want a line-2 error", rate, err)
		}
	}
}

// TestDuplicateTenantKeyRejected: two tenants sharing a key is a
// provisioning error, not a silent overwrite. So is a non-finite rate.
func TestDuplicateTenantKeyRejected(t *testing.T) {
	node := buildNode(t, 1)
	_, err := New(node, Config{
		Tenants: []Tenant{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate key: err = %v, want duplicate-key error", err)
	}
	for _, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, cfg := range map[string]Config{
			"TenantRate":  {TenantRate: r},
			"GlobalRate":  {GlobalRate: r},
			"Tenant.Rate": {Tenants: []Tenant{{Name: "alice", Key: "k-a", Rate: r}}},
		} {
			if _, err := New(node, cfg); err == nil || !strings.Contains(err.Error(), "not finite") {
				t.Fatalf("%s %v: err = %v, want a non-finite rate error", name, r, err)
			}
		}
	}
}

// TestConcurrentMultiTenantHammer drives every endpoint from many
// tenants at once; under -race this shakes out locking bugs in the
// admission path, metric registry, and histogram buckets.
func TestConcurrentMultiTenantHammer(t *testing.T) {
	const blocks = 6
	node := buildNode(t, blocks)
	tenants := []Tenant{
		{Name: "t0", Key: "k0", Rate: -1},
		{Name: "t1", Key: "k1", Rate: -1},
		{Name: "t2", Key: "k2", Rate: 200, Burst: 50},
	}
	g, base := startGateway(t, node, Config{Tenants: tenants, MaxInflight: 8})

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := tenants[w%len(tenants)].Key
			for i := 0; i < 15; i++ {
				var resp *http.Response
				switch i % 3 {
				case 0:
					resp, _ = do(t, "GET", base+"/v1/headers", key, nil)
				case 1:
					resp, _ = do(t, "POST", base+"/v1/query", key, queryBody(0, blocks-1, false))
				default:
					resp, _ = do(t, "GET", base+"/v1/stats", key, nil)
				}
				// 200 and 429 are both legitimate under load; anything
				// else is a bug.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					errc <- fmt.Errorf("worker %d req %d: status %d", w, i, resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The registry must still render a consistent scrape.
	resp, body := do(t, "GET", base+"/metrics", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics after hammer: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "vchain_gateway_requests_total") {
		t.Fatal("scrape lost the request counter family")
	}
	if g.mReq.Total() == 0 {
		t.Fatal("no requests recorded")
	}
}

// TestServeAndClose exercises the real listener path with timeouts.
func TestServeAndClose(t *testing.T) {
	node := buildNode(t, 2)
	g, err := New(node, Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := g.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if g.Addr() != addr {
		t.Fatalf("Addr() = %q, want %q", g.Addr(), addr)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over real listener: %d", resp.StatusCode)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("gateway still serving after Close")
	}
}

// pagedOnly is a service.Chain whose Headers fails the test: serving
// one page of a header sync must not copy every header of the chain.
type pagedOnly struct {
	service.Chain
	t testing.TB
}

func (c pagedOnly) Headers() []chain.Header {
	c.t.Error("a header page copied the whole chain")
	return c.Chain.Headers()
}

// TestHeaderSyncPagesWithoutFullCopy syncs a light store page by page
// over TCP and over HTTP from a chain whose Headers fails the test, and
// checks that both synced stores match the node.
func TestHeaderSyncPagesWithoutFullCopy(t *testing.T) {
	const blocks, page = 40, 16
	node := buildNode(t, blocks)
	served := pagedOnly{Chain: node, t: t}
	matches := func(front string, light *chain.LightStore) {
		t.Helper()
		if light.Height() != blocks {
			t.Fatalf("%s: synced %d headers, want %d", front, light.Height(), blocks)
		}
		for h := 0; h < blocks; h++ {
			got, _ := light.HeaderAt(h)
			want, _ := node.HeaderAt(h)
			if got != want {
				t.Fatalf("%s: header %d differs from the node's", front, h)
			}
		}
	}

	// TCP: a 4 KB frame cap holds 33 headers a batch.
	srv := service.NewServer(served, service.ServerConfig{MaxFrame: 4096})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := service.Dial(addr, service.ClientConfig{MaxFrame: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	light := chain.NewLightStore(0)
	if err := cli.SyncHeaders(context.Background(), light); err != nil {
		t.Fatal(err)
	}
	matches("tcp", light)

	// HTTP: GET /v1/headers pages of 16 until one comes back empty.
	_, base := startGateway(t, served, Config{})
	light = chain.NewLightStore(0)
	for {
		resp, body := do(t, "GET", fmt.Sprintf("%s/v1/headers?from=%d&limit=%d", base, light.Height(), page), "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("headers from %d: status %d (body %s)", light.Height(), resp.StatusCode, body)
		}
		var got struct {
			Height  int          `json:"height"`
			Headers []headerJSON `json:"headers"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Height != blocks || len(got.Headers) > page {
			t.Fatalf("page from %d: height %d, %d headers", light.Height(), got.Height, len(got.Headers))
		}
		if len(got.Headers) == 0 {
			break
		}
		hs := make([]chain.Header, len(got.Headers))
		for i, hj := range got.Headers {
			hs[i] = headerFromJSON(t, hj)
		}
		if err := light.Sync(hs); err != nil {
			t.Fatal(err)
		}
	}
	matches("HTTP", light)
}

// headerFromJSON decodes one /v1/headers entry, checking its hash.
func headerFromJSON(t testing.TB, hj headerJSON) chain.Header {
	t.Helper()
	h := chain.Header{Height: hj.Height, TS: hj.TS, Nonce: hj.Nonce}
	for _, f := range []struct {
		dst *chain.Digest
		hex string
	}{{&h.PrevHash, hj.PrevHash}, {&h.MerkleRoot, hj.MerkleRoot}, {&h.SkipListRoot, hj.SkipListRoot}} {
		if f.hex == "" {
			continue // an omitted skip-list root is zero
		}
		b, err := hex.DecodeString(f.hex)
		if err != nil || len(b) != len(f.dst) {
			t.Fatalf("header %d: bad digest %q", hj.Height, f.hex)
		}
		copy(f.dst[:], b)
	}
	if sum := h.Hash(); hex.EncodeToString(sum[:]) != hj.Hash {
		t.Fatalf("header %d: decoded header does not hash to %s", hj.Height, hj.Hash)
	}
	return h
}
