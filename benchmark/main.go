// Command benchmark is the repository's benchmark: six workloads that
// boot the real gob and HTTP front ends in this process on loopback,
// drive them with the real clients, check every answer with the light
// client's verifier and against a naive scan, and report end-to-end
// metrics (--trace 0) or per-layer metrics taken from outside the
// program (--trace 1). See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/vchain-go/vchain/internal/core"
)

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// provenance says what produced a result. It is printed before the
// result line and written beside the spans under benchmark/out/.
type provenance struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	CPUModel   string    `json:"cpu_model"`
	GoVersion  string    `json:"go_version"`
	GitRev     string    `json:"git_revision"`
	GitDirty   bool      `json:"git_dirty"`
	Config     config    `json:"config"`
	Samples    int       `json:"samples"`
	SetupS     []float64 `json:"setup_s"`
	ProbeMs    float64   `json:"probe_ms"`
	FirstError string    `json:"first_error,omitempty"`
	Result     *result   `json:"result"`
}

func main() {
	var (
		workload = flag.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", 42, "drives the dataset and every operation")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		all      = flag.Bool("all", false, "run every workload once, each in its own process, and print a table")
		check    = flag.Bool("check", false, "run the whole suite twice and fail if an end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	if runtime.NumCPU() < procs {
		fatal(fmt.Errorf("the benchmark is pinned to GOMAXPROCS=%d and this machine has %d CPU", procs, runtime.NumCPU()))
	}
	runtime.GOMAXPROCS(procs)

	switch {
	case *all || *check:
		if err := suite(*seed, *seconds, *trace, *check); err != nil {
			fatal(err)
		}
	default:
		res, prov, err := run(frozen, *workload, *seed, *seconds, *trace != 0)
		if err != nil {
			fatal(err)
		}
		prov.Result = res
		report(prov)
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// run sets workload name up, runs its timed phase and turns the
// measurement into a result.
func run(cfg config, name string, seed int64, seconds float64, traced bool) (*result, *provenance, error) {
	ds, queries, subs, err := genInputs(cfg, name, seed, queryStream)
	if err != nil {
		return nil, nil, err
	}

	var tr *tracer
	if traced {
		tr = newTracer(name)
	}
	// Set up several times and keep the last: one set-up is too short
	// a sample for setup_s to be steady. Each set-up is scaled by the
	// host's speed just before it, between its steps, and just after.
	var e *env
	var setups []float64
	pr := newProbe()
	for rep := 0; rep < cfg.SetupReps; rep++ {
		if e != nil {
			e.close()
		}
		pr.burst()
		t0 := time.Now()
		if e, err = setup(cfg, name, ds, queries, subs, tr, pr); err != nil {
			return nil, nil, fmt.Errorf("set-up of %s: %w", name, err)
		}
		took := time.Since(t0).Seconds()
		pr.burst()
		setups = append(setups, took*scale(pr.take()))
	}
	defer e.close()

	m := e.measure(queries, seed, limit{seconds: seconds})

	res := &result{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	prov := newProvenance(cfg, name, seed, seconds, traced)
	prov.Samples, prov.SetupS, prov.ProbeMs = len(m.lat), setups, m.probeMs
	if m.firstErr != nil {
		prov.FirstError = m.firstErr.Error()
	}
	if m.attempted == 0 {
		return nil, nil, errors.New("no operation was attempted")
	}
	if traced {
		values := layerMetrics(e, m)
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		}
		if err := os.MkdirAll(outDir, 0o755); err == nil {
			err = tr.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed)))
		}
		if err != nil {
			return nil, nil, err
		}
	} else {
		values, err := endToEndMetrics(m, setups)
		if err != nil {
			return nil, nil, err
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		}
	}
	res.Correct = m.failed == 0
	return res, prov, nil
}

// measure runs the workload's timed phase.
func (e *env) measure(queries []core.Query, seed int64, lim limit) *measurement {
	switch e.name {
	case "http_hot":
		return e.runHTTP(queries, lim)
	case "mine_durable":
		return e.runMine(seed, lim)
	case "sub_stream":
		return e.runSub(lim)
	default:
		return e.runGob(queries, lim)
	}
}

// endToEndMetrics turns a measurement into the user-visible numbers.
// Every time is scaled to the reference host speed (see probe.go).
func endToEndMetrics(m *measurement, setups []float64) (map[string]float64, error) {
	p50, err := percentile(m.lat, 50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(m.lat, 90)
	if err != nil {
		return nil, fmt.Errorf("%w: --seconds is too short, or the frozen sizes too large for this machine", err)
	}
	k := scale(m.probeMs)
	return map[string]float64{
		"op_p50_ms":     p50 * k,
		"op_p90_ms":     p90 * k,
		"ops_per_s":     float64(len(m.lat)-m.failed) / (m.busy.Seconds() * k),
		"bytes_per_op":  m.bytes / float64(len(m.lat)),
		"cpu_ms_per_op": ms(m.cpu) / float64(m.attempted) * k,
		"heap_live_mb":  m.heapMB,
		"setup_s":       median(setups),
	}, nil
}

func newProvenance(cfg config, name string, seed int64, seconds float64, traced bool) *provenance {
	p := &provenance{
		Workload: name, Seed: seed, Seconds: seconds, Traced: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), GitRev: "unknown", Config: cfg,
	}
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitRev = strings.TrimSpace(string(rev))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		p.GitDirty = err != nil || len(status) > 0
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints the provenance and keeps a copy under benchmark/out/.
func report(p *provenance) {
	data, _ := json.Marshal(p)
	fmt.Printf("provenance: %s\n", data)
	kind := "e2e"
	if p.Traced {
		kind = "layers"
	}
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s-%s-seed%d.json", kind, p.Workload, p.Seed)), data, 0o644)
	}
}

// suite runs every workload in a child process of its own, as the
// driver does, once (-all) or twice (-check). With -check it fails when
// the second pass is worse than the first by more than a metric's own
// bound, in either direction of time: the two passes ran the same code.
func suite(seed int64, seconds float64, trace int, check bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	passes := 1
	if check {
		passes, trace = 2, 0
	}
	runs := make([]map[string]*result, passes)
	for p := range runs {
		runs[p] = map[string]*result{}
		for _, w := range workloadNames {
			cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s (pass %d): %w", w, p+1, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s (pass %d): result line: %w", w, p+1, err)
			}
			runs[p][w] = &res
			fmt.Printf("pass %d  %-13s attempted %d  failed %d\n", p+1, w, res.Attempted, res.Failed)
			defs := endToEnd
			if trace != 0 {
				defs = perLayer
			}
			for _, d := range defs {
				fmt.Printf("        %-40s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
			}
		}
	}
	if !check {
		return nil
	}
	var bad []string
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			a, b := runs[0][w].Metrics[d.Name].Value, runs[1][w].Metrics[d.Name].Value
			diff := max(worseBy(d.Better, a, b), worseBy(d.Better, b, a))
			verdict := "ok"
			if diff > d.Bound {
				verdict = "OUTSIDE BOUND"
				bad = append(bad, w+"/"+d.Name)
			}
			fmt.Printf("check   %-13s %-14s %12.4f %12.4f  differ %5.1f%%  bound %4.0f%%  %s\n", w, d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("two runs of the same code disagree beyond the bound on: %s", strings.Join(bad, ", "))
	}
	return nil
}
