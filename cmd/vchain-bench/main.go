// Command vchain-bench regenerates the vChain paper's evaluation tables
// and figures on synthetic workloads.
//
// Usage:
//
//	vchain-bench -exp table1                 # one experiment
//	vchain-bench -exp all                    # everything (slow)
//	vchain-bench -exp fig9 -blocks 64 -queries 5 -preset default
//
// Each experiment prints an aligned text table whose rows mirror the
// paper's series. With -json-dir it also writes the same data as a
// machine-readable BENCH_<experiment>.json artifact into that directory
// (so CI and the process tracking the perf trajectory can diff runs);
// without it, nothing is written.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/vchain-go/vchain/internal/bench"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
)

// artifact is the JSON schema of one BENCH_<experiment>.json file:
// the rendered table plus enough context (options, host parallelism,
// wall time) to compare artifacts across runs and machines.
type artifact struct {
	Experiment string        `json:"experiment"`
	Title      string        `json:"title"`
	Note       string        `json:"note,omitempty"`
	Columns    []string      `json:"columns"`
	Rows       [][]string    `json:"rows"`
	Options    bench.Options `json:"options"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	ElapsedMs  int64         `json:"elapsed_ms"`
	Timestamp  string        `json:"timestamp"`
}

func main() {
	var (
		exp     = flag.String("exp", "", "experiment to run: "+strings.Join(bench.ExperimentNames(), ", ")+", or 'all'")
		preset  = flag.String("preset", "toy", "pairing preset: toy | default")
		blocks  = flag.Int("blocks", 0, "chain length per configuration (0 = default)")
		objs    = flag.Int("objects", 0, "objects per block (0 = default)")
		queries = flag.Int("queries", 0, "queries averaged per data point (0 = default)")
		skip    = flag.Int("skiplist", 0, "skip-list size ℓ (0 = default)")
		seed    = flag.Int64("seed", 0, "workload seed (0 = default)")
		jsonDir = flag.String("json-dir", "", "directory for BENCH_<experiment>.json artifacts (empty = don't write)")
	)
	flag.Parse()

	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	if _, err := pairing.Lookup(*preset); err != nil {
		fmt.Fprintf(os.Stderr, "vchain-bench: %v\n", err)
		os.Exit(2)
	}
	opts := bench.Options{
		Preset:          *preset,
		Blocks:          *blocks,
		ObjectsPerBlock: *objs,
		Queries:         *queries,
		SkipListSize:    *skip,
		Seed:            *seed,
	}

	names := []string{*exp}
	if *exp == "all" {
		names = bench.ExperimentNames()
	}
	for _, name := range names {
		driver, ok := bench.Experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "vchain-bench: unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
		start := time.Now()
		table, err := driver(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vchain-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		fmt.Println(table.String())
		fmt.Printf("   (completed in %v)\n\n", elapsed.Round(time.Millisecond))
		if *jsonDir == "" {
			continue
		}
		art := artifact{
			Experiment: name,
			Title:      table.Title,
			Note:       table.Note,
			Columns:    table.Columns,
			Rows:       table.Rows,
			Options:    opts,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			ElapsedMs:  elapsed.Milliseconds(),
			Timestamp:  start.UTC().Format(time.RFC3339),
		}
		data, err := json.MarshalIndent(&art, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "vchain-bench: %s: encoding artifact: %v\n", name, err)
			os.Exit(1)
		}
		path := filepath.Join(*jsonDir, "BENCH_"+name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "vchain-bench: %s: writing %s: %v\n", name, path, err)
			os.Exit(1)
		}
		fmt.Printf("   artifact: %s\n\n", path)
	}
}
