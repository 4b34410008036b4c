package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/vchain-go/vchain/internal/adstore"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/proofs"
)

// measurement is what one timed phase produced. Latencies are per
// operation in issue order; an operation that failed keeps its latency
// but is counted in failed.
type measurement struct {
	attempted, failed int
	firstErr          error
	lat               []float64 // ms
	traced            []bool    // per operation: recorded with the tracer on
	late              []float64 // ms the open-loop generator ran behind, per request
	// bytes sums the canonical size of what each operation produced: VO
	// bytes of an answer, log bytes of a mined block, VO bytes pushed
	// for a published block.
	bytes float64
	// busy is the time the clients spent inside operations: the phase
	// without the harness's own checks and probes between them.
	busy    time.Duration
	elapsed time.Duration
	cpu     time.Duration
	heapMB  float64
	// probeMs is the host-speed probe's median over the phase.
	probeMs float64
	// before and after are the program's own counters at the phase
	// boundaries.
	before, after counters
	// extra holds counts only one workload has (parts, shed requests,
	// deliveries, payload bytes).
	extra map[string]float64
}

func newMeasurement() *measurement { return &measurement{extra: map[string]float64{}} }

// record adds one operation; callers add to busy themselves, because
// operations may overlap.
func (m *measurement) record(lat time.Duration, traced bool, err error) {
	m.attempted++
	m.lat = append(m.lat, ms(lat))
	m.traced = append(m.traced, traced)
	m.fail(err)
}

func (m *measurement) fail(err error) {
	if err == nil {
		return
	}
	m.failed++
	if m.firstErr == nil {
		m.firstErr = err
	}
}

// latencies returns the latencies recorded with the tracer on or off.
func (m *measurement) latencies(traced bool) []float64 {
	var out []float64
	for i, l := range m.lat {
		if m.traced[i] == traced {
			out = append(out, l)
		}
	}
	return out
}

// counters are the program's own statistics, read from outside at the
// boundaries of the timed phase.
type counters struct {
	proofs proofs.Stats
	ads    adstore.Stats
	rd, wr int64
	build  time.Duration
}

func (e *env) counters() counters {
	c := counters{proofs: e.node.ProofStats(), rd: e.rd.Load(), wr: e.wr.Load()}
	if e.full != nil {
		c.ads = e.full.ADSStats()
		c.build = e.full.SetupStats.BuildTime
	} else {
		for _, s := range e.sharded.ShardStats() {
			c.ads.Hits += s.ADS.Hits
			c.ads.Misses += s.ADS.Misses
			c.ads.Decodes += s.ADS.Decodes
			c.ads.Evictions += s.ADS.Evictions
		}
	}
	return c
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs one workload's loop between two readings of the clocks
// and counters, then takes the live heap unless the loop already did.
func (e *env) timed(loop func(m *measurement)) *measurement {
	m := newMeasurement()
	runtime.GC()
	m.before = e.counters()
	e.probe.run()
	e.probe.take()
	cpu0, t0 := cpuTime(), time.Now()
	loop(m)
	m.elapsed, m.cpu = time.Since(t0), cpuTime()-cpu0
	e.probe.run()
	m.probeMs = e.probe.take()
	m.after = e.counters()
	if m.heapMB == 0 {
		m.heapMB = liveHeapMB()
	}
	return m
}

// liveHeapMB is the heap in use after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// limit ends a timed phase: when its seconds are over or, for tests
// that need exact counts, after ops operations.
type limit struct {
	seconds float64
	ops     int
}

// start begins the phase and returns the test for "may operation
// number done+1 still start?".
func (l limit) start() func(done int) bool {
	deadline := time.Now().Add(time.Duration(l.seconds * float64(time.Second)))
	return func(done int) bool {
		return (l.ops == 0 || done < l.ops) && time.Now().Before(deadline)
	}
}

// traceOp arms the tracer for closed-loop operation i. Recording is on
// for four operations and off for the next four, so one traced run
// gives both medians that trace.overhead_ratio compares, and each side
// gets the same mix of query shapes (every fourth query is a wide one).
func (e *env) traceOp(i int) bool {
	if e.tr == nil {
		return false
	}
	on := i%8 < 4
	e.tr.on.Store(on)
	e.tr.op.Store(int64(i + 1))
	return on
}

// runGob is the closed loop of the three gob query workloads: one
// client sends the next query when the previous answer has verified.
func (e *env) runGob(queries []core.Query, lim limit) *measurement {
	return e.timed(func(m *measurement) {
		ctx := context.Background()
		more := lim.start()
		// The last two queries of the stream warmed the connection.
		for i := 0; i < len(queries)-2 && more(i); i++ {
			q := queries[i]
			traced := e.traceOp(i)
			t0 := time.Now()
			s := e.tr.begin()
			parts, err := e.cli.QueryParts(ctx, q, false)
			e.tr.end(spanGobRTT, s, len(parts))
			var objs []chain.Object
			if err == nil {
				s = e.tr.begin()
				objs, err = e.ver.VerifyWindowParts(q, parts)
				e.tr.end(spanVerify, s, len(objs))
			}
			lat := time.Since(t0)
			if err == nil {
				err = sameObjects(objs, oracle(e.ds, q, q.StartBlock, q.EndBlock))
			}
			voBytes, cerr := e.replayCodec(parts)
			if err == nil {
				err = cerr
			}
			m.record(lat, traced, err)
			m.busy += lat
			m.extra["parts"] += float64(len(parts))
			m.extra["results"] += float64(len(objs))
			m.bytes += float64(voBytes)
			e.replayPageIns()
			e.probe.tick()
		}
	})
}

// replayCodec encodes an answer's VOs canonically — their size is the
// answer's bytes_per_op — and, in a traced operation, times that
// encode and the matching decode, which the gob path never runs itself.
// A VO that does not survive its own codec fails the operation.
func (e *env) replayCodec(parts []core.WindowPart) (voBytes int, err error) {
	for _, p := range parts {
		s := e.tr.begin()
		enc := core.EncodeVO(e.acc, p.VO)
		e.tr.end(spanVOEncode, s, len(enc))
		voBytes += len(enc)
		if s >= 0 {
			s = e.tr.begin()
			_, derr := core.DecodeVO(e.acc, enc)
			e.tr.end(spanVODecode, s, len(enc))
			if derr != nil && err == nil {
				err = fmt.Errorf("canonical VO does not decode: %w", derr)
			}
		}
	}
	return voBytes, err
}

// replayPageIns repeats, by direct calls, what the paged ADS source did
// with each record the traced backend just served: decode the ADS half
// and check it against the header. Those steps run inside the program
// where no seam reaches; their cost here is what the walk's self time
// is reduced by.
func (e *env) replayPageIns() {
	if e.backend == nil {
		return
	}
	for _, r := range e.backend.takePageIns() {
		s := e.tr.begin()
		ads, err := core.DecodeChainRecordADS(r.data)
		e.tr.end(spanRecDecode, s, len(r.data))
		if err != nil {
			continue
		}
		hdr, err := e.full.HeaderAt(r.index)
		if err != nil {
			continue
		}
		s = e.tr.begin()
		_ = core.VerifyADSCommitments(e.builder, hdr, r.index, ads) // the program made the same check
		e.tr.end(spanADSVerify, s, 1)
	}
}

// httpAnswer describes one HTTP response.
type httpAnswer struct {
	status    int
	bodyBytes int
	voBytes   int
	parts     int
}

// queryBody is the JSON body of POST /v1/query for q.
func queryBody(q core.Query) ([]byte, error) {
	type rng struct {
		Lo []int64 `json:"lo"`
		Hi []int64 `json:"hi"`
	}
	body := struct {
		StartBlock int        `json:"startBlock"`
		EndBlock   int        `json:"endBlock"`
		Keywords   [][]string `json:"keywords,omitempty"`
		Range      *rng       `json:"range,omitempty"`
	}{StartBlock: q.StartBlock, EndBlock: q.EndBlock}
	for _, clause := range q.Bool {
		var raw []string
		for _, el := range clause {
			kw, ok := core.RawKeyword(el)
			if !ok {
				return nil, fmt.Errorf("clause element %q is not a keyword", el)
			}
			raw = append(raw, kw)
		}
		body.Keywords = append(body.Keywords, raw)
	}
	if q.Range != nil {
		body.Range = &rng{q.Range.Lo, q.Range.Hi}
	}
	return json.Marshal(body)
}

// httpQuery runs q through the gateway as tenant and verifies the
// answer as an external client must: the VOs are decoded from the
// body's base64 with core.DecodeVO, never taken from the result list
// the gateway also sends.
func (e *env) httpQuery(tenant int, q core.Query, op int) ([]chain.Object, httpAnswer, error) {
	var ans httpAnswer
	body, err := queryBody(q)
	if err != nil {
		return nil, ans, err
	}
	req, err := http.NewRequest("POST", e.gwURL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, ans, err
	}
	req.Header.Set("X-API-Key", tenantKey(tenant))
	req.Header.Set("Content-Type", "application/json")

	s := e.tr.begin()
	resp, err := e.tenants[tenant].Do(req)
	if err != nil {
		return nil, ans, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	e.tr.endOp(spanHTTPRTT, s, len(raw), op)
	ans.status, ans.bodyBytes = resp.StatusCode, len(raw)
	if err != nil {
		return nil, ans, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, ans, fmt.Errorf("gateway answered %d: %.120s", resp.StatusCode, raw)
	}

	s = e.tr.begin()
	var decoded struct {
		Parts []struct {
			Start int    `json:"start"`
			End   int    `json:"end"`
			VO    string `json:"vo"`
		} `json:"parts"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		return nil, ans, fmt.Errorf("answer body: %w", err)
	}
	encs := make([][]byte, len(decoded.Parts))
	for i, p := range decoded.Parts {
		if encs[i], err = base64.StdEncoding.DecodeString(p.VO); err != nil {
			return nil, ans, fmt.Errorf("part %d: %w", i, err)
		}
		ans.voBytes += len(encs[i])
	}
	e.tr.endOp(spanBodyDecode, s, len(raw), op)

	s = e.tr.begin()
	parts := make([]core.WindowPart, len(encs))
	for i, enc := range encs {
		vo, err := core.DecodeVO(e.acc, enc)
		if err != nil {
			return nil, ans, fmt.Errorf("part %d: %w", i, err)
		}
		parts[i] = core.WindowPart{Start: decoded.Parts[i].Start, End: decoded.Parts[i].End, VO: vo}
	}
	e.tr.endOp(spanVODecode, s, ans.voBytes, op)
	ans.parts = len(parts)

	s = e.tr.begin()
	objs, err := e.ver.VerifyWindowParts(q, parts)
	e.tr.endOp(spanVerify, s, len(objs), op)
	return objs, ans, err
}

// traceSlice is how long the tracer stays on or off in an open loop,
// where operations overlap and cannot take turns one by one.
const traceSlice = 500 * time.Millisecond

// runHTTP is http_hot's open loop: every tenant sends on its own fixed
// schedule whether or not earlier answers have arrived, replaying the
// pool whose proofs set-up computed.
func (e *env) runHTTP(queries []core.Query, lim limit) *measurement {
	pool := queries[:e.cfg.HotPool]
	return e.timed(func(m *measurement) {
		if e.tr != nil {
			e.tr.op.Store(0) // two requests may be in flight: server spans cannot name theirs
		}
		type outcome struct {
			traced bool
			q      core.Query
			objs   []chain.Object
			ans    httpAnswer
			err    error
		}
		start := time.Now()
		var inFlight atomic.Int32
		idle := func() {
			// Probe the host only while no tenant is waiting for an answer.
			if inFlight.Load() == 0 {
				e.probe.tick()
			}
		}
		reqs, out := openLoop(e.cfg.Tenants, e.cfg.HotRate, lim.seconds, maxLag, idle, func(client, seq int) outcome {
			inFlight.Add(1)
			defer inFlight.Add(-1)
			// Tenant c takes pool entries c, c+tenants, …: no two tenants
			// ever ask for the same entry at once.
			q := pool[seq%len(pool)]
			traced := false
			if e.tr != nil {
				traced = int(time.Since(start)/traceSlice)%2 == 0
				e.tr.on.Store(traced)
			}
			objs, ans, err := e.httpQuery(client, q, seq+1)
			return outcome{traced, q, objs, ans, err}
		})
		for i, r := range reqs {
			if !r.sent {
				m.attempted++
				m.fail(fmt.Errorf("request %d was never sent: the generator was more than %v behind", i, maxLag))
				continue
			}
			o := out[i]
			if o.err == nil {
				o.err = sameObjects(o.objs, oracle(e.ds, o.q, o.q.StartBlock, o.q.EndBlock))
			}
			m.record(r.lat, o.traced, o.err)
			// Tenants wait in parallel: each carries its share of the time.
			m.busy += (r.lat - r.late) / time.Duration(e.cfg.Tenants)
			m.late = append(m.late, ms(r.late))
			m.bytes += float64(o.ans.voBytes)
			m.extra["parts"] += float64(o.ans.parts)
			m.extra["body_bytes"] += float64(o.ans.bodyBytes)
			if o.ans.status == http.StatusTooManyRequests {
				m.extra["shed"]++
			}
		}
	})
}
