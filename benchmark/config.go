package main

import "github.com/vchain-go/vchain/internal/service"

// config holds every size the workloads depend on. The benchmark runs
// with frozen; tests use a miniature copy. None of these is a flag: a
// number is comparable across commits only if both sides ran the same
// sizes.
type config struct {
	// Preset is the pairing preset ("default": 512-bit p; "toy" hides
	// the field-arithmetic cost and is for tests only).
	Preset string
	// ObjectsPerBlock is the 4SQ block size.
	ObjectsPerBlock int
	// SkipSize is the inter-block skip-list size ℓ.
	SkipSize int
	// ProofWorkers is the SP's proof-computation worker count.
	ProofWorkers int
	// ChainBlocks is the chain length of the four query workloads.
	ChainBlocks int
	// WindowBlocks is the length of every query window.
	WindowBlocks int
	// ADSCacheBlocks is gob_paged's decoded-ADS cache size.
	ADSCacheBlocks int
	// Shards is gob_sharded's shard count (default band).
	Shards int
	// HotPool is the number of (query, window) pairs http_hot replays.
	HotPool int
	// HotRate is http_hot's total offered rate in requests/second,
	// split evenly between the tenants.
	HotRate float64
	// Tenants is the number of independent open-loop HTTP clients.
	Tenants int
	// MineBlocks is the number of blocks generated for mine_durable;
	// the run stops at the deadline or when they are used up.
	MineBlocks int
	// MineHeapAt is the chain height at which mine_durable takes its
	// heap_live_mb: the node keeps every ADS it mined, so the heap at the
	// end of the phase would mostly say how many blocks the time allowed.
	MineHeapAt int
	// Reopens is how many timed lazy reopens follow mine_durable.
	Reopens int
	// Subs and SubClausePool shape sub_stream's subscriptions.
	Subs, SubClausePool int
	// SubWarmBlocks are mined before sub_stream's timing starts, so the
	// skip list is populated when the first timed block is built.
	SubWarmBlocks int
	// SetupReps is how many times a run sets up; setup_s is the median.
	SetupReps int
	// Front, when set, replaces the chain the front ends serve. Tests
	// interpose a cheating SP here; the benchmark leaves it nil.
	Front func(service.Chain) service.Chain `json:"-"`
}

// frozen is the configuration every reported number comes from. It is
// what a user of vchain-sp runs: acc2, both indexes, non-batched
// queries, default proof cache, fsync on commit.
var frozen = config{
	Preset:          "default",
	ObjectsPerBlock: 8,
	SkipSize:        3,
	ProofWorkers:    2,
	ChainBlocks:     128,
	WindowBlocks:    12,
	ADSCacheBlocks:  16,
	Shards:          2,
	HotPool:         128,
	HotRate:         30,
	Tenants:         2,
	MineBlocks:      4096,
	MineHeapAt:      512,
	Reopens:         5,
	Subs:            32,
	SubClausePool:   8,
	SubWarmBlocks:   16,
	SetupReps:       3,
}

// procs is the GOMAXPROCS every run is pinned to; the benchmark refuses
// to run on fewer cores.
const procs = 2

// metricDef describes one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. One operation is one
// verified query on the four query workloads, one durably mined block
// on mine_durable, and one verified delivery to one subscriber on
// sub_stream. BENCHMARK.json repeats this table; a test
// keeps the two equal.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"bytes_per_op", "B", "lower", 0.20},
	{"cpu_ms_per_op", "ms", "lower", 0.20},
	{"heap_live_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// workloadNames are the workloads of BENCHMARK.json, in its order.
var workloadNames = []string{"gob_prove", "http_hot", "gob_paged", "gob_sharded", "mine_durable", "sub_stream"}
