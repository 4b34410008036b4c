// Package gateway is the production HTTP front door of a vChain SP:
// multi-tenant admission control, Prometheus-style metrics, and a
// JSON query surface layered over the same node interface the TCP
// service layer serves.
//
// The binary TCP protocol (internal/service) is the high-throughput
// path for light clients that verify VOs locally; the gateway exists
// so that one SP process can also (1) serve many untrusted tenants
// behind API keys, token-bucket rate limits, and fail-fast inflight
// caps, (2) expose every performance and health counter of the
// deployment — proof engine, shards, service layer, per-tenant
// traffic — on one scrapable /metrics endpoint, and (3) answer
// curl/browser queries in JSON. Verifiability is preserved across the
// JSON hop: every part of a query answer carries its canonical VO
// encoding (base64 of core.EncodeVO), so an external verifier holding
// the headers can re-check soundness and completeness without
// trusting the gateway.
//
// Endpoints:
//
//	GET  /v1/headers?from=N&limit=M   block headers (JSON, paginated)
//	POST /v1/query                    time-window query (strict or degraded)
//	GET  /v1/stats                    proof/shard/gateway counters (JSON)
//	GET  /metrics                     Prometheus text exposition
//	GET  /healthz                     liveness probe
package gateway

import (
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/service"
	"github.com/vchain-go/vchain/internal/shard"
)

const (
	// DefaultMaxInflight caps concurrently processed /v1 requests when
	// Config.MaxInflight is 0; excess requests shed with 429 instead of
	// queueing behind slow proof walks.
	DefaultMaxInflight = 64
	// DefaultQueryTimeout bounds one query's server-side proof walk
	// (matching the TCP client's default RPC budget).
	DefaultQueryTimeout = 30 * time.Second
	// DefaultHeaderPage bounds one /v1/headers response.
	DefaultHeaderPage = 512
	// maxHeaderPage is the largest explicit ?limit a caller may ask for.
	maxHeaderPage = 4096
	// maxQueryBody bounds a /v1/query request body.
	maxQueryBody = 1 << 20
)

// Config tunes the gateway. The zero value serves an open (single
// anonymous tenant), unlimited-rate gateway with the default inflight
// cap and timeouts.
type Config struct {
	// Tenants are the provisioned API-key principals. Empty means the
	// gateway is open: unauthenticated requests are admitted as the
	// "anonymous" tenant (still rate-limited by TenantRate/GlobalRate).
	Tenants []Tenant
	// TenantRate is the default per-tenant sustained rate in
	// requests/second for tenants that don't set their own (and for the
	// anonymous tenant). 0 means unlimited.
	TenantRate float64
	// TenantBurst is the default bucket depth (0 derives from the rate).
	TenantBurst int
	// GlobalRate caps the whole gateway in requests/second across all
	// tenants; its bucket depth derives from the rate. 0 means
	// unlimited.
	GlobalRate float64
	// MaxInflight caps concurrently processed /v1 requests
	// (DefaultMaxInflight when 0, negative means uncapped). Excess
	// load sheds fail-fast with 429 + Retry-After.
	MaxInflight int
	// Logger receives structured request logs (tenant, endpoint,
	// window, outcome, latency). Nil disables request logging.
	Logger *slog.Logger
	// ServiceCounters are extra scrape-time counter sources exported as
	// vchain_service_<name>_total — the facade wires the TCP server's
	// eviction counter through here so wire-layer health lands on the
	// same dashboard.
	ServiceCounters map[string]func() int64
}

// shardStatser is implemented by sharded nodes (shard.Node); the
// gateway exports per-shard health when the node provides it.
type shardStatser interface {
	ShardStats() []shard.Stats
}

// Gateway serves one node over HTTP/JSON with admission control and
// metrics. Create with New, start with Serve (or mount Handler in an
// existing server), stop with Close.
type Gateway struct {
	node service.Chain
	cfg  Config
	adm  *admitter
	log  *slog.Logger
	reg  *Registry

	mReq          *CounterVec   // tenant, endpoint, code
	mLatency      *HistogramVec // tenant, endpoint
	mVOBytes      *CounterVec   // tenant
	mRateLimited  *CounterVec   // tenant
	mUnauthorized *Counter
	mShed         *Counter
	mDegraded     *Counter
	mGapBlocks    *Counter

	start time.Time

	mu  sync.Mutex
	srv *http.Server
	ln  net.Listener
}

// New builds a gateway over a node (monolithic core.FullNode or
// sharded shard.Node — anything the TCP service layer can serve).
func New(node service.Chain, cfg Config) (*Gateway, error) {
	adm, err := newAdmitter(cfg)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		node:  node,
		cfg:   cfg,
		adm:   adm,
		log:   cfg.Logger,
		reg:   NewRegistry(),
		start: time.Now(),
	}
	g.register(node)
	return g, nil
}

// register wires every metric family: gateway traffic counters plus
// scrape-time snapshots of the proof engine, shard health, and any
// service-layer counters the caller supplied.
func (g *Gateway) register(node service.Chain) {
	r := g.reg
	g.mReq = r.CounterVec("vchain_gateway_requests_total",
		"Gateway requests by tenant, endpoint, and HTTP status code.",
		"tenant", "endpoint", "code")
	g.mLatency = r.HistogramVec("vchain_gateway_request_seconds",
		"Gateway request latency in seconds.", nil,
		"tenant", "endpoint")
	g.mVOBytes = r.CounterVec("vchain_gateway_vo_bytes_total",
		"Canonical VO bytes served in query responses, by tenant.",
		"tenant")
	g.mRateLimited = r.CounterVec("vchain_gateway_rate_limited_total",
		"Requests rejected 429 by a token bucket, by tenant.",
		"tenant")
	g.mUnauthorized = r.Counter("vchain_gateway_unauthorized_total",
		"Requests rejected 401 for a missing or unknown API key.")
	g.mShed = r.Counter("vchain_gateway_shed_total",
		"Requests shed 429 by the max-inflight cap.")
	g.mDegraded = r.Counter("vchain_gateway_degraded_answers_total",
		"Query answers served with gaps (degraded reads).")
	g.mGapBlocks = r.Counter("vchain_gateway_gap_blocks_total",
		"Total block heights reported inside degraded-answer gaps.")
	r.GaugeFunc("vchain_gateway_inflight",
		"Currently processing /v1 requests.",
		func() float64 { return float64(g.adm.inflightNow()) })
	r.GaugeFunc("vchain_gateway_uptime_seconds",
		"Seconds since the gateway started.",
		func() float64 { return time.Since(g.start).Seconds() })
	r.GaugeFunc("vchain_chain_height",
		"Blocks on the served chain.",
		func() float64 { return float64(node.Height()) })

	// Proof engine: scrape-time snapshot of the node's one engine.
	r.CollectCounter("vchain_proofs_total",
		"Disjointness proofs computed (cache misses that reached the accumulator).",
		func() float64 { return float64(node.ProofStats().Proofs) })
	r.CollectCounter("vchain_proof_cache_hits_total",
		"Proof requests answered from the memo cache or joined in flight.",
		func() float64 { return float64(node.ProofStats().CacheHits) })
	r.CollectCounter("vchain_proof_cache_misses_total",
		"Proof requests that had to compute.",
		func() float64 { return float64(node.ProofStats().CacheMisses) })
	r.CollectCounter("vchain_proof_cache_evictions_total",
		"Proof cache entries dropped by the LRU bound.",
		func() float64 { return float64(node.ProofStats().Evictions) })
	r.CollectCounter("vchain_proof_agg_groups_total",
		"Same-clause aggregation groups finalized (online batch verification).",
		func() float64 { return float64(node.ProofStats().AggGroups) })
	r.CollectCounter("vchain_proof_errors_total",
		"Failed proof computations.",
		func() float64 { return float64(node.ProofStats().Errors) })
	r.GaugeFunc("vchain_proof_cache_hit_ratio",
		"Proof cache hit ratio over the engine lifetime (0 when idle).",
		func() float64 { return node.ProofStats().HitRate() })

	if ss, ok := node.(shardStatser); ok {
		shardFamilies := []struct {
			name, help string
			kind       familyKind
			value      func(s shard.Stats) float64
		}{
			{"vchain_shard_health", "Shard health state (0 healthy, 1 degraded, 2 quarantined).", kindGauge,
				func(s shard.Stats) float64 { return float64(s.Health) }},
			{"vchain_shard_up", "1 when the shard admits work (breaker closed).", kindGauge,
				func(s shard.Stats) float64 {
					if s.Health == shard.Quarantined {
						return 0
					}
					return 1
				}},
			{"vchain_shard_failures_total", "Backend failures recorded by the shard breaker.", kindCounter,
				func(s shard.Stats) float64 { return float64(s.Failures) }},
			{"vchain_shard_restarts_total", "Successful supervisor restarts.", kindCounter,
				func(s shard.Stats) float64 { return float64(s.Restarts) }},
			{"vchain_shard_breaker_trips_total", "Transitions into quarantine.", kindCounter,
				func(s shard.Stats) float64 { return float64(s.BreakerTrips) }},
		}
		for _, fam := range shardFamilies {
			fam := fam
			r.CollectFunc(fam.name, fam.help, fam.kind, func(e *Expo) {
				for _, s := range ss.ShardStats() {
					e.Sample(fam.name, [][2]string{{"shard", strconv.Itoa(s.Shard)}}, fam.value(s))
				}
			})
		}
	}

	for name, fn := range g.cfg.ServiceCounters {
		fn := fn
		r.CollectCounter("vchain_service_"+name+"_total",
			"Service-layer counter "+name+".",
			func() float64 { return float64(fn()) })
	}
}

// Handler returns the gateway's HTTP handler (mountable in tests or an
// existing server; Serve wraps it with timeouts).
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	g.mountScrape(mux)
	mux.Handle("GET /v1/headers", g.admit("headers", g.handleHeaders))
	mux.Handle("POST /v1/query", g.admit("query", g.handleQuery))
	mux.Handle("GET /v1/stats", g.admit("stats", g.handleStats))
	return mux
}

// MetricsHandler returns only the unauthenticated scrape surface
// (/metrics and /healthz), for a standalone observability listener on
// a port kept off the query network.
func (g *Gateway) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	g.mountScrape(mux)
	return mux
}

func (g *Gateway) mountScrape(mux *http.ServeMux) {
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		g.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","height":%d}`+"\n", g.node.Height())
	})
}

// Serve starts listening on addr ("127.0.0.1:0" picks a port) and
// returns the bound address. The HTTP server bounds reading a request
// and writing its response by service.DefaultFrameTimeout, mirroring
// the TCP layer's partial-frame discipline: a peer that stops draining
// is disconnected, never awaited.
func (g *Gateway) Serve(addr string) (string, error) {
	const wt = service.DefaultFrameTimeout
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("gateway: listen: %w", err)
	}
	srv := &http.Server{
		Handler:           g.Handler(),
		ReadTimeout:       wt,
		ReadHeaderTimeout: wt,
		WriteTimeout:      wt,
		IdleTimeout:       60 * time.Second,
	}
	g.mu.Lock()
	g.srv, g.ln = srv, ln
	g.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Serve).
func (g *Gateway) Addr() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ln == nil {
		return ""
	}
	return g.ln.Addr().String()
}

// Close stops the listener and open connections.
func (g *Gateway) Close() error {
	g.mu.Lock()
	srv := g.srv
	g.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// statusWriter captures the response code for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// errorJSON writes a JSON error body with the given status.
func errorJSON(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{"error": msg, "code": code})
}

// admit wraps a /v1 handler with the full admission pipeline:
// authenticate (401), global + tenant token buckets (429 +
// Retry-After), inflight cap (429), then metrics and a structured log
// line on the way out.
func (g *Gateway) admit(endpoint string, h func(http.ResponseWriter, *http.Request, string)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		ts, ok := g.adm.authenticate(r)
		if !ok {
			g.mUnauthorized.Inc()
			g.mReq.With(unknownTenant, endpoint, "401").Inc()
			errorJSON(w, http.StatusUnauthorized, "unknown or missing API key")
			g.logRequest(r, unknownTenant, endpoint, http.StatusUnauthorized, t0, "unauthorized")
			return
		}
		if ok, retry := g.adm.throttle(ts, t0); !ok {
			g.mRateLimited.With(ts.name).Inc()
			g.mReq.With(ts.name, endpoint, "429").Inc()
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
			errorJSON(w, http.StatusTooManyRequests, "rate limit exceeded")
			g.logRequest(r, ts.name, endpoint, http.StatusTooManyRequests, t0, "rate-limited")
			return
		}
		release, ok := g.adm.acquire()
		if !ok {
			g.mShed.Inc()
			g.mReq.With(ts.name, endpoint, "429").Inc()
			w.Header().Set("Retry-After", "1")
			errorJSON(w, http.StatusTooManyRequests, "too many requests in flight")
			g.logRequest(r, ts.name, endpoint, http.StatusTooManyRequests, t0, "shed")
			return
		}
		defer release()

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r, ts.name)
		g.mReq.With(ts.name, endpoint, strconv.Itoa(sw.code)).Inc()
		g.mLatency.With(ts.name, endpoint).Observe(time.Since(t0).Seconds())
		g.logRequest(r, ts.name, endpoint, sw.code, t0, "served")
	})
}

func (g *Gateway) logRequest(r *http.Request, tenant, endpoint string, code int, t0 time.Time, outcome string) {
	if g.log == nil {
		return
	}
	g.log.Info("gateway request",
		"tenant", tenant,
		"endpoint", endpoint,
		"method", r.Method,
		"code", code,
		"outcome", outcome,
		"elapsed", time.Since(t0).Round(time.Microsecond).String(),
		"remote", r.RemoteAddr,
	)
}

// headerJSON is one block header on the JSON surface.
type headerJSON struct {
	Height       uint64 `json:"height"`
	TS           int64  `json:"ts"`
	Nonce        uint64 `json:"nonce"`
	PrevHash     string `json:"prevHash"`
	MerkleRoot   string `json:"merkleRoot"`
	SkipListRoot string `json:"skipListRoot,omitempty"`
	Hash         string `json:"hash"`
}

func toHeaderJSON(h chain.Header) headerJSON {
	out := headerJSON{
		Height:     h.Height,
		TS:         h.TS,
		Nonce:      h.Nonce,
		PrevHash:   hex.EncodeToString(h.PrevHash[:]),
		MerkleRoot: hex.EncodeToString(h.MerkleRoot[:]),
	}
	if h.SkipListRoot != (chain.Digest{}) {
		out.SkipListRoot = hex.EncodeToString(h.SkipListRoot[:])
	}
	hh := h.Hash()
	out.Hash = hex.EncodeToString(hh[:])
	return out
}

// handleHeaders serves GET /v1/headers?from=N&limit=M.
func (g *Gateway) handleHeaders(w http.ResponseWriter, r *http.Request, tenant string) {
	from, limit := 0, DefaultHeaderPage
	if s := r.URL.Query().Get("from"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			errorJSON(w, http.StatusBadRequest, fmt.Sprintf("bad from %q", s))
			return
		}
		from = v
	}
	if s := r.URL.Query().Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			errorJSON(w, http.StatusBadRequest, fmt.Sprintf("bad limit %q", s))
			return
		}
		if v > maxHeaderPage {
			v = maxHeaderPage
		}
		limit = v
	}
	page, height, err := service.HeaderPage(g.node, from, limit)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	hs := make([]headerJSON, len(page))
	for i, h := range page {
		hs[i] = toHeaderJSON(h)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"height":  height,
		"from":    from,
		"headers": hs,
	})
}

// queryRequest is the JSON body of POST /v1/query.
type queryRequest struct {
	// StartBlock and EndBlock bound the inclusive height window.
	StartBlock int `json:"startBlock"`
	EndBlock   int `json:"endBlock"`
	// Keywords is the Boolean condition in CNF: an AND of OR-clauses
	// over raw keywords, e.g. [["sedan"],["benz","bmw"]].
	Keywords [][]string `json:"keywords,omitempty"`
	// Range is the optional numeric range predicate.
	Range *struct {
		Lo []int64 `json:"lo"`
		Hi []int64 `json:"hi"`
	} `json:"range,omitempty"`
	// Batched requests online batch verification (§6.3).
	Batched bool `json:"batched,omitempty"`
	// AllowDegraded accepts a partial answer with machine-readable
	// gaps when shards are down, instead of an error.
	AllowDegraded bool `json:"allowDegraded,omitempty"`
}

// query maps the body onto the core query it asks for, at the served
// chain's numeric width. Core validates the window and the condition,
// as it does for every front door.
func (req *queryRequest) query(width int) core.Query {
	q := core.Query{StartBlock: req.StartBlock, EndBlock: req.EndBlock, Width: width}
	for _, clause := range req.Keywords {
		q.Bool = append(q.Bool, core.KeywordClause(clause...))
	}
	if req.Range != nil {
		q.Range = &core.RangeCond{Lo: req.Range.Lo, Hi: req.Range.Hi}
	}
	return q
}

// objectJSON is one result object.
type objectJSON struct {
	ID uint64   `json:"id"`
	TS int64    `json:"ts"`
	V  []int64  `json:"v"`
	W  []string `json:"w"`
}

// partJSON is one verified tile of the answer: its span and the
// canonical VO bytes an external verifier checks. The VO carries the
// part's result objects; the response's top-level results list them
// once, in part order.
type partJSON struct {
	Start int `json:"start"`
	End   int `json:"end"`
	// VO is the base64 canonical encoding (core.EncodeVO) of this
	// part's verification object.
	VO string `json:"vo"`
}

// gapJSON is one unproven sub-window of a degraded answer.
type gapJSON struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// queryResponse is the JSON body of a successful query.
type queryResponse struct {
	StartBlock int          `json:"startBlock"`
	EndBlock   int          `json:"endBlock"`
	Results    []objectJSON `json:"results"`
	Parts      []partJSON   `json:"parts"`
	Gaps       []gapJSON    `json:"gaps,omitempty"`
	Degraded   bool         `json:"degraded"`
	ElapsedMs  float64      `json:"elapsedMs"`
}

// handleQuery serves POST /v1/query.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request, tenant string) {
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		errorJSON(w, http.StatusBadRequest, "bad query body: "+err.Error())
		return
	}
	// Core's refusals carry CodeNone and answer 400.
	q := req.query(g.node.BitWidth())

	ctx, cancel := context.WithTimeout(r.Context(), DefaultQueryTimeout)
	defer cancel()

	t0 := time.Now()
	var (
		parts []core.WindowPart
		gaps  []core.Gap
		err   error
	)
	if req.AllowDegraded {
		parts, gaps, err = g.node.TimeWindowDegraded(ctx, q, req.Batched)
	} else {
		parts, err = g.node.TimeWindowParts(ctx, q, req.Batched)
	}
	if err != nil {
		g.queryError(w, r, tenant, q, err)
		return
	}
	elapsed := time.Since(t0)

	resp := queryResponse{
		StartBlock: q.StartBlock,
		EndBlock:   q.EndBlock,
		Results:    []objectJSON{},
		Parts:      make([]partJSON, 0, len(parts)),
		Degraded:   len(gaps) > 0,
		ElapsedMs:  float64(elapsed.Microseconds()) / 1000.0,
	}
	acc := g.node.Acc()
	voBytes := 0
	for _, p := range parts {
		enc := core.EncodeVO(acc, p.VO)
		voBytes += len(enc)
		resp.Parts = append(resp.Parts, partJSON{
			Start: p.Start,
			End:   p.End,
			VO:    base64.StdEncoding.EncodeToString(enc),
		})
		for _, o := range p.VO.Results() {
			resp.Results = append(resp.Results, objectJSON{ID: uint64(o.ID), TS: o.TS, V: o.V, W: o.W})
		}
	}
	gapBlocks := 0
	for _, gp := range gaps {
		resp.Gaps = append(resp.Gaps, gapJSON{Start: gp.Start, End: gp.End})
		gapBlocks += gp.Blocks()
	}
	g.mVOBytes.With(tenant).Add(int64(voBytes))
	if resp.Degraded {
		g.mDegraded.Inc()
		g.mGapBlocks.Add(int64(gapBlocks))
	}
	if g.log != nil {
		g.log.Info("gateway query",
			"tenant", tenant,
			"window", fmt.Sprintf("[%d,%d]", q.StartBlock, q.EndBlock),
			"batched", req.Batched,
			"degraded", resp.Degraded,
			"parts", len(resp.Parts),
			"gaps", len(resp.Gaps),
			"results", len(resp.Results),
			"voBytes", voBytes,
			"elapsed", elapsed.Round(time.Microsecond).String(),
		)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&resp)
}

// queryError maps a planner/proof failure onto an HTTP status by the
// sentinel it wraps, classified by the TCP wire's one table
// (service.CodeOf): an expired budget is 504, and a server-side fault
// on the strict path — a quarantined shard, or a shard's storage
// failing to page an ADS in — is 503 with the degraded path
// advertised. Everything else is the caller's query (an over-capacity
// clause, say) and stays 400.
func (g *Gateway) queryError(w http.ResponseWriter, r *http.Request, tenant string, q core.Query, err error) {
	if g.log != nil {
		g.log.Warn("gateway query failed",
			"tenant", tenant,
			"window", fmt.Sprintf("[%d,%d]", q.StartBlock, q.EndBlock),
			"err", err.Error(),
		)
	}
	switch service.CodeOf(err) {
	case service.CodeDeadline:
		errorJSON(w, http.StatusGatewayTimeout, "query deadline exceeded")
	case service.CodeCanceled:
		errorJSON(w, 499, "client closed request") // nginx's code for a gone client
	case service.CodeShardUnavailable, service.CodeADSUnavailable:
		errorJSON(w, http.StatusServiceUnavailable,
			"a covering shard is unavailable; retry with allowDegraded for a partial answer")
	default:
		errorJSON(w, http.StatusBadRequest, err.Error())
	}
}

// statsResponse is the JSON body of GET /v1/stats.
type statsResponse struct {
	Height int           `json:"height"`
	Proofs proofStats    `json:"proofs"`
	Shards []shardStats  `json:"shards,omitempty"`
	GW     gatewayCounts `json:"gateway"`
}

type proofStats struct {
	Proofs      uint64  `json:"proofs"`
	CacheHits   uint64  `json:"cacheHits"`
	CacheMisses uint64  `json:"cacheMisses"`
	Evictions   uint64  `json:"evictions"`
	AggGroups   uint64  `json:"aggGroups"`
	Errors      uint64  `json:"errors"`
	HitRate     float64 `json:"hitRate"`
}

type shardStats struct {
	Shard        int    `json:"shard"`
	Health       string `json:"health"`
	Failures     uint64 `json:"failures"`
	Restarts     uint64 `json:"restarts"`
	BreakerTrips uint64 `json:"breakerTrips"`
	LastError    string `json:"lastError,omitempty"`
}

type gatewayCounts struct {
	Requests      int64   `json:"requests"`
	RateLimited   int64   `json:"rateLimited"`
	Unauthorized  int64   `json:"unauthorized"`
	Shed          int64   `json:"shed"`
	VOBytes       int64   `json:"voBytes"`
	Degraded      int64   `json:"degradedAnswers"`
	Inflight      int     `json:"inflight"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// handleStats serves GET /v1/stats.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request, tenant string) {
	ps := g.node.ProofStats()
	resp := statsResponse{
		Height: g.node.Height(),
		Proofs: proofStats{
			Proofs:      ps.Proofs,
			CacheHits:   ps.CacheHits,
			CacheMisses: ps.CacheMisses,
			Evictions:   ps.Evictions,
			AggGroups:   ps.AggGroups,
			Errors:      ps.Errors,
			HitRate:     ps.HitRate(),
		},
		GW: gatewayCounts{
			Requests:      g.mReq.Total(),
			RateLimited:   g.mRateLimited.Total(),
			Unauthorized:  g.mUnauthorized.Value(),
			Shed:          g.mShed.Value(),
			VOBytes:       g.mVOBytes.Total(),
			Degraded:      g.mDegraded.Value(),
			Inflight:      g.adm.inflightNow(),
			UptimeSeconds: time.Since(g.start).Seconds(),
		},
	}
	if ss, ok := g.node.(shardStatser); ok {
		for _, s := range ss.ShardStats() {
			resp.Shards = append(resp.Shards, shardStats{
				Shard:        s.Shard,
				Health:       s.Health.String(),
				Failures:     s.Failures,
				Restarts:     s.Restarts,
				BreakerTrips: s.BreakerTrips,
				LastError:    s.LastError,
			})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&resp)
}
