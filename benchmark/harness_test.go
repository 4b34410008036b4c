package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/service"
)

// mini is the frozen configuration shrunk until a workload sets up and
// runs in a fraction of a second: toy pairing parameters, a 16-block
// chain. The shape — indexes, shards, paging, tenants, subscriptions —
// is the benchmark's.
var mini = config{
	Preset:          "toy",
	ObjectsPerBlock: 4,
	SkipSize:        2,
	ProofWorkers:    2,
	ChainBlocks:     16,
	WindowBlocks:    6,
	ADSCacheBlocks:  2,
	Shards:          2,
	HotPool:         4,
	HotRate:         40,
	Tenants:         2,
	MineBlocks:      32,
	MineHeapAt:      4,
	Reopens:         2,
	Subs:            4,
	SubClausePool:   2,
	SubWarmBlocks:   4,
	SetupReps:       1,
}

// runMini sets workload name up once and runs ops operations of it.
func runMini(t *testing.T, cfg config, name string, seed int64, ops int, traced bool) (*env, *measurement) {
	t.Helper()
	outDir = t.TempDir()
	ds, queries, subs, err := genInputs(cfg, name, seed, 64)
	if err != nil {
		t.Fatal(err)
	}
	var tr *tracer
	if traced {
		tr = newTracer(name)
	}
	e, err := setup(cfg, name, ds, queries, subs, tr, newProbe())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e, e.measure(queries, seed, limit{seconds: 0.3, ops: ops})
}

// TestEveryWorkloadRunsCorrect drives each workload's miniature end to
// end, untraced and traced: every operation must verify and match the
// naive scan, and a traced run must yield every per-layer metric.
func TestEveryWorkloadRunsCorrect(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			e, m := runMini(t, mini, name, 7, 4, traced)
			if m.attempted == 0 || m.failed != 0 {
				t.Fatalf("%s traced=%v: attempted %d, failed %d: %v", name, traced, m.attempted, m.failed, m.firstErr)
			}
			if !traced {
				continue
			}
			got := layerMetrics(e, m)
			for _, d := range perLayer {
				if _, ok := got[d.Name]; !ok {
					t.Errorf("%s: traced run lacks %s", name, d.Name)
				}
			}
			if len(got) != len(perLayer) {
				t.Errorf("%s: traced run has %d metrics, BENCHMARK lists %d", name, len(got), len(perLayer))
			}
			if got["trace.layer_sum_ratio"] <= 0 {
				t.Errorf("%s: no layer self time was attributed", name)
			}
		}
	}
}

// TestSameSeedSameOperations: a seed fixes the operation list and every
// count that does not depend on the clock; another seed gives another
// list.
func TestSameSeedSameOperations(t *testing.T) {
	gen := func(seed int64) ([]core.Query, []core.Query) {
		ds, err := genDataset(mini, seed, mini.ChainBlocks)
		if err != nil {
			t.Fatal(err)
		}
		return genQueries(mini, ds, seed, 32, mini.ChainBlocks), genSubs(mini, ds, seed)
	}
	q1, s1 := gen(5)
	q2, s2 := gen(5)
	q3, _ := gen(6)
	if !reflect.DeepEqual(q1, q2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("the same seed gave different operation lists")
	}
	if reflect.DeepEqual(q1, q3) {
		t.Fatal("different seeds gave the same operation list")
	}

	type counts struct{ bytes, proofs, parts float64 }
	run := func(name string, seed int64) counts {
		_, m := runMini(t, mini, name, seed, 6, false)
		if m.failed != 0 {
			t.Fatalf("%s: %v", name, m.firstErr)
		}
		return counts{m.bytes, float64(m.after.proofs.Proofs - m.before.proofs.Proofs), m.extra["parts"]}
	}
	first := map[string]counts{}
	for _, name := range []string{"gob_prove", "gob_sharded", "mine_durable"} {
		first[name] = run(name, 5)
		if again := run(name, 5); again != first[name] {
			t.Errorf("%s: same seed, different counts: %+v vs %+v", name, first[name], again)
		}
		if first[name].bytes == 0 {
			t.Errorf("%s: no bytes counted", name)
		}
	}
	if other := run("gob_prove", 6); other == first["gob_prove"] {
		t.Errorf("gob_prove: seeds 5 and 6 gave identical counts %+v", other)
	}
	if sharded, mono := first["gob_sharded"], first["gob_prove"]; sharded.parts <= mono.parts {
		t.Errorf("2 shards answered in %v parts, 1 node in %v: windows were not split", sharded.parts, mono.parts)
	}
}

// cheatingChain is an SP that, once armed, leaves the newest block out
// of every answer.
type cheatingChain struct {
	service.Chain
	armed *bool
}

func (c cheatingChain) TimeWindowParts(ctx context.Context, q core.Query, batched bool) ([]core.WindowPart, error) {
	parts, err := c.Chain.TimeWindowParts(ctx, q, batched)
	if err == nil && *c.armed {
		vo := *parts[0].VO
		vo.Blocks = vo.Blocks[1:]
		parts[0].VO = &vo
	}
	return parts, err
}

// TestTamperedAnswerIsAFailedOperation: the harness trusts nothing the
// SP sends; a VO that was tampered with is a failed operation, on the
// gob path and on the HTTP path.
func TestTamperedAnswerIsAFailedOperation(t *testing.T) {
	for _, name := range []string{"gob_prove", "http_hot"} {
		cfg := mini
		armed := false
		cfg.Front = func(c service.Chain) service.Chain { return cheatingChain{c, &armed} }
		outDir = t.TempDir()
		ds, queries, _, err := genInputs(cfg, name, 3, 64)
		if err != nil {
			t.Fatal(err)
		}
		e, err := setup(cfg, name, ds, queries, nil, nil, newProbe())
		if err != nil {
			t.Fatal(err)
		}
		armed = true // set-up's warm-up queries ran against an honest SP
		m := e.measure(queries, 3, limit{seconds: 0.25, ops: 5})
		e.close()
		if m.attempted == 0 || m.failed != m.attempted {
			t.Errorf("%s: %d of %d tampered answers were counted as failures", name, m.failed, m.attempted)
		}
	}
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return out
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: must refuse
	}{
		{200, 95, 190}, // nearest rank: ceil(0.95*200) = 190, ten beyond
		{199, 95, 0},   // rank 190 of 199 leaves nine
		{100, 90, 90},
		{99, 90, 0},
		{10, 50, 5},
		{9, 50, 0},
		{1000, 99, 990},
		{200, 99, 0},
		{200, 100, 0},
	} {
		got, err := percentile(seq(c.n), c.p)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("p%g of %d samples: got %g, want a refusal", c.p, c.n, got)
		case c.want != 0 && (err != nil || got != c.want):
			t.Errorf("p%g of %d samples: got %g, %v; want %g", c.p, c.n, got, err, c.want)
		}
	}
	if _, err := percentile(seq(200), 0); err == nil {
		t.Error("p0 was not refused")
	}
}

// TestOpenLoopTimesFromDueTime: a stall in one request must show in the
// latency of the requests that queued behind it, and in how late the
// generator ran — a closed loop would have hidden both.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	t.Parallel()
	const stall = 200 * time.Millisecond
	// One client, a request every 20 ms; request 5 blocks for 200 ms.
	reqs, _ := openLoop(1, 50, 0.6, time.Second, func() {}, func(_, seq int) struct{} {
		if seq == 5 {
			time.Sleep(stall)
		}
		return struct{}{}
	})
	if len(reqs) != 30 {
		t.Fatalf("scheduled %d requests, want 30", len(reqs))
	}
	for i, r := range reqs {
		if !r.sent {
			t.Fatalf("request %d was not sent", i)
		}
	}
	if reqs[4].lat > stall/4 || reqs[4].late > stall/4 {
		t.Errorf("request before the stall: latency %v, late %v", reqs[4].lat, reqs[4].late)
	}
	if reqs[5].lat < stall {
		t.Errorf("stalled request: latency %v < %v", reqs[5].lat, stall)
	}
	// Request 6 was due 20 ms into the stall: it waited the other 180.
	if reqs[6].lat < stall-40*time.Millisecond || reqs[6].late < stall-40*time.Millisecond {
		t.Errorf("request queued behind the stall: latency %v, late %v, want about %v", reqs[6].lat, reqs[6].late, stall-20*time.Millisecond)
	}
	if reqs[8].lat < stall/2 {
		t.Errorf("third request behind the stall: latency %v, the queue drained too fast", reqs[8].lat)
	}
	if last := reqs[len(reqs)-1]; last.late > stall/4 {
		t.Errorf("the generator never caught up: last request %v late", last.late)
	}
	behind := 0
	for _, r := range reqs {
		if r.late > 10*time.Millisecond {
			behind++
		}
	}
	// Requests 6 to 14 fell due during the stall or its backlog.
	if behind < 8 || behind > 12 {
		t.Errorf("%d requests ran late, want about 9: the generator does not report the stall", behind)
	}
}

// TestOpenLoopGivesUpWhenFarBehind: a request the sender cannot reach
// within the allowed lag is reported unsent, so the caller counts it as
// failed.
func TestOpenLoopGivesUpWhenFarBehind(t *testing.T) {
	t.Parallel()
	const lag = 100 * time.Millisecond
	// A request every 50 ms; the first blocks until 170 ms, when request
	// 1 is 120 ms overdue and request 2 only 70 ms.
	reqs, _ := openLoop(1, 20, 0.3, lag, func() {}, func(_, seq int) struct{} {
		if seq == 0 {
			time.Sleep(170 * time.Millisecond)
		}
		return struct{}{}
	})
	if len(reqs) != 6 {
		t.Fatalf("scheduled %d requests, want 6", len(reqs))
	}
	if !reqs[0].sent || reqs[1].sent {
		t.Errorf("request 0 sent=%v; request 1, overdue by more than %v, sent=%v", reqs[0].sent, lag, reqs[1].sent)
	}
	for i := 2; i < len(reqs); i++ {
		if !reqs[i].sent {
			t.Errorf("request %d was within %v of its due time and was given up", i, lag)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the tables
// the harness prints from in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, harness runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n harness %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %+v\n harness %+v", spec.PerLayer, perLayer)
	}
	largest := 0.0
	for _, d := range endToEnd {
		largest = max(largest, d.Bound)
	}
	if d := endToEnd[len(endToEnd)-1]; d.Name != "setup_s" || d.Bound != largest {
		t.Errorf("setup_s must be listed last with the largest bound, got %+v", d)
	}
}
