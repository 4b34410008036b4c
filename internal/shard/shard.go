// Package shard spreads a vChain SP across height-range shards.
//
// The paper's SP proves each block's ADS independently, so the block
// space is embarrassingly partitionable — and where a block's record is
// stored is a placement decision, not a second kind of node. The node
// itself (block index, the one commit pipeline, mining, paged ADS
// slots, height-ordered replay) is core.FullNode, which deals heights
// to N ≥ 1 storage slots in contiguous bands. This package layers over
// it what is genuinely about shards:
//
//   - Topology: one crash-safe block-log subdirectory per shard
//     (shard-000, shard-001, …) plus a SHARDS record fixing the
//     partitioning at creation.
//   - Supervision: a per-shard Healthy→Degraded→Quarantined circuit
//     breaker, operator quarantine, and supervised restart of a shard
//     from its own log (health.go). The breakers are the node's
//     core.SlotGuard: they see every commit and every page-in failure
//     of a degraded read.
//
// Queries are core.FullNode's own: a strict answer is one part, byte
// for byte the one-node VO at every shard count, and a degraded answer
// gaps exactly the heights of shards that are down.
package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/proofs"
	"github.com/vchain-go/vchain/internal/storage"
)

// DefaultBand is the number of consecutive heights per shard band when
// Options.Band is zero. Bands keep inter-block skips (which jump 4, 8,
// … blocks) mostly intra-shard while still spreading a large window
// across all shards.
const DefaultBand = 8

// metaFile records the shard topology inside the store directory so a
// reopen cannot silently reinterpret the record placement.
const metaFile = "SHARDS"

// Options configure a sharded node.
type Options struct {
	// Shards is the number of shard workers. 0 means 1.
	Shards int
	// Band is the number of consecutive heights per shard band:
	// owner(h) = (h / Band) mod Shards. 0 means DefaultBand. The value
	// is fixed at store creation; reopening validates it against the
	// directory's topology record.
	Band int
	// Deprecated: Workers is ignored. GOMAXPROCS alone bounds the
	// goroutines the node's one proof engine proves a run on; the field
	// stays so that the benchmark harness, which sets it, keeps
	// compiling.
	Workers int
	// ADSCacheBlocks bounds the node's decoded-ADS cache, in blocks,
	// split evenly across the shards (each worker keeps at least one
	// entry). 0 leaves the LRUs unbounded — everything faulted in stays
	// resident, matching the pre-paging footprint once warm. Durable
	// nodes only; an ephemeral shard's LRU is its only copy of the ADSs
	// and stays unbounded.
	ADSCacheBlocks int
	// Storage configures each shard's block-log backend (durable
	// nodes only).
	Storage storage.Options
	// FailureThreshold is the number of consecutive backend failures
	// that trips a shard's circuit breaker (quarantine). 0 means
	// DefaultFailureThreshold; negative disables the breaker.
	FailureThreshold int
	// BreakerCooldown is how long a quarantined shard sheds load
	// before the supervisor attempts a restart. 0 means
	// DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// WrapBackend, when set, wraps every shard backend as it is
	// created or re-opened — the hook fault injection (internal/fault)
	// uses to sit between a shard and its disk.
	WrapBackend func(shard int, b storage.Backend) storage.Backend
}

// DefaultFailureThreshold is the consecutive-failure count that trips
// a shard's breaker when Options.FailureThreshold is zero.
const DefaultFailureThreshold = 3

// DefaultBreakerCooldown is the quarantine cooldown before restart
// attempts when Options.BreakerCooldown is zero.
const DefaultBreakerCooldown = 5 * time.Second

func (o Options) withDefaults() Options {
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.Band < 1 {
		o.Band = DefaultBand
	}
	if o.FailureThreshold == 0 {
		o.FailureThreshold = DefaultFailureThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	return o
}

// worker is one shard's supervision state; the shard's storage slot
// (backend + decoded-ADS source) lives in the embedded core.FullNode.
// hmu guards the health state machine (health.go) so health can be
// read without the node's commit lock.
type worker struct {
	id int
	// threshold is Options.FailureThreshold.
	threshold int

	// Health state machine — see health.go. Guarded by hmu.
	hmu         sync.Mutex
	health      Health
	consecutive int
	failures    uint64
	restarts    uint64
	trips       uint64
	trippedAt   time.Time
	lastErr     error
}

// Node is a miner/SP whose chain is spread over N ≥ 1 shards. The
// embedded core.FullNode is the node proper — block index, commit
// pipeline, mining, paged ADS slots (one per shard), the one proof
// engine, time-window queries — and this type adds what is genuinely
// about shards: the on-disk topology and per-shard health supervision.
// It implements the service layer's Chain interface.
type Node struct {
	*core.FullNode
	opts Options

	// dir is the store root for durable nodes; empty for ephemeral
	// nodes. RestartShard re-opens a shard's log relative to it.
	dir string

	shards workers
}

// workers is the shard set; it is the embedded node's SlotGuard, so the
// circuit breakers sit on the one commit path and the one query path.
type workers []*worker

// Admit implements core.SlotGuard: a quarantined shard sheds commits
// and queries.
func (ws workers) Admit(i int) error {
	if !ws[i].admit() {
		return fmt.Errorf("shard %d: %w", i, ErrShardUnavailable)
	}
	return nil
}

// Report implements core.SlotGuard: backend Append outcomes and
// degraded page-in failures feed the breaker.
func (ws workers) Report(i int, err error) {
	if err != nil {
		ws[i].fail(err)
	} else {
		ws[i].ok()
	}
}

// ShardReport is one shard's recovery outcome on reopen.
type ShardReport struct {
	// Dir is the shard's subdirectory (relative to the store root).
	Dir string
	// Log is the storage layer's recovery report (torn-tail
	// truncation).
	Log storage.Report
	// Dropped counts structurally valid records truncated because a
	// sibling shard lost earlier heights: the chain can only be
	// restored up to the first gap, and records above it must not
	// resurface as a divergent tail later.
	Dropped int
}

// RecoveryReport summarizes a sharded reopen.
type RecoveryReport struct {
	// Blocks is the restored chain length.
	Blocks int
	// Shards holds one report per shard, in shard order.
	Shards []ShardReport
}

// newNode layers the shard machinery over a core node with one slot
// per shard: the node's one proof engine, which proves queries and
// subscriptions on up to GOMAXPROCS goroutines from one cache, and the
// breakers on the commit path.
func newNode(full *core.FullNode, dir string, opts Options) *Node {
	n := &Node{FullNode: full, opts: opts, dir: dir}
	full.Proofs = proofs.New(full.Acc(), proofs.Options{})
	for i := 0; i < opts.Shards; i++ {
		n.shards = append(n.shards, &worker{id: i, threshold: opts.FailureThreshold})
	}
	full.Guard = n.shards
	return n
}

// New creates an ephemeral sharded node: nothing survives the process.
// Use Open for a node whose chain persists across restarts.
func New(difficulty chain.Difficulty, b *core.Builder, opts Options) *Node {
	opts = opts.withDefaults()
	backends := make([]storage.Backend, opts.Shards)
	for i := range backends {
		backends[i] = opts.wrap(i, storage.NewNull())
	}
	full, _, err := core.NewBandedNode(difficulty, b, opts.Band, backends)
	if err != nil {
		// Impossible: empty backends have nothing to replay.
		panic(err)
	}
	return newNode(full, "", opts)
}

// wrap applies the configured backend wrapper, if any.
func (o Options) wrap(shard int, b storage.Backend) storage.Backend {
	if o.WrapBackend == nil {
		return b
	}
	return o.WrapBackend(shard, b)
}

// shardDir names shard i's subdirectory.
func shardDir(i int) string { return fmt.Sprintf("shard-%03d", i) }

// Open opens (or creates) a sharded block store rooted at dir: one
// block-log subdirectory per shard plus a topology record. Records
// replay in height order across the shards (core.NewBandedNode); the
// returned report carries each shard's storage recovery outcome. A
// shard directory whose tail was torn by a crash bounds the restored
// chain — the other shards are unaffected, and their records beyond the
// restored height are truncated so mining resumes from a mutually
// consistent state.
func Open(difficulty chain.Difficulty, b *core.Builder, dir string, opts Options) (*Node, *RecoveryReport, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("shard: creating store directory: %w", err)
	}
	// Unset topology fields adopt the directory's recorded values, so a
	// reopen needs no out-of-band knowledge of how the store was
	// created; explicit values are validated against the record,
	// because reinterpreting record placement would scramble the chain.
	shards, band, recorded, err := readMeta(dir)
	if err != nil {
		return nil, nil, err
	}
	if recorded {
		if opts.Shards < 1 {
			opts.Shards = shards
		}
		if opts.Band < 1 {
			opts.Band = band
		}
	}
	opts = opts.withDefaults()
	if recorded {
		if shards != opts.Shards || band != opts.Band {
			return nil, nil, fmt.Errorf("shard: store has %d shards with band %d, asked for %d/%d "+
				"(the topology is fixed at creation)", shards, band, opts.Shards, opts.Band)
		}
	} else {
		if err := checkUnrecorded(dir, opts.Shards); err != nil {
			return nil, nil, err
		}
		if err := writeMeta(dir, opts.Shards, opts.Band); err != nil {
			return nil, nil, err
		}
	}

	report := &RecoveryReport{Shards: make([]ShardReport, opts.Shards)}
	backends := make([]storage.Backend, 0, opts.Shards)
	closeAll := func() {
		for _, be := range backends {
			be.Close()
		}
	}
	for i := range report.Shards {
		log, err := storage.Open(filepath.Join(dir, shardDir(i)), opts.Storage)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("shard %d: %w", i, err)
		}
		backends = append(backends, opts.wrap(i, log))
		report.Shards[i] = ShardReport{Dir: shardDir(i), Log: log.Report()}
	}
	full, stranded, err := core.NewBandedNode(difficulty, b, opts.Band, backends, core.WithADSCache(opts.ADSCacheBlocks))
	if err != nil {
		closeAll()
		return nil, nil, fmt.Errorf("shard: %w", err)
	}
	report.Blocks = full.Height()
	for i, dropped := range stranded {
		report.Shards[i].Dropped = dropped
	}
	return newNode(full, dir, opts), report, nil
}

// checkUnrecorded vets a directory without a topology record. A flat
// block log (its file directly in dir, as written before every store
// had a topology) is byte-for-byte a valid one-shard store's shard-000,
// so it is refused with the fix rather than read through a second
// layout; and once moved, it must be opened as one shard — dealing its
// records to several would strand and truncate most of the chain.
func checkUnrecorded(dir string, shards int) error {
	first := filepath.Join(dir, shardDir(0))
	if flat, _ := filepath.Glob(filepath.Join(dir, "*.vseg")); len(flat) > 0 {
		return fmt.Errorf("shard: %s holds a flat block log, which is now the one-shard layout's %s; "+
			"move it: mkdir %s && mv %s %s",
			dir, shardDir(0), first, filepath.Join(dir, "*.vseg"), first)
	}
	if _, err := os.Stat(first); err == nil && shards != 1 {
		return fmt.Errorf("shard: %s has no topology record but already holds %s (a moved flat log): "+
			"open it with one shard, not %d", dir, shardDir(0), shards)
	}
	return nil
}

// writeMeta durably records the topology: temp file, fsync, rename,
// fsync the directory — a crash leaves either no record or a whole one,
// never a torn file that would reject every later Open. A temp file
// stranded by such a crash is simply overwritten.
func writeMeta(dir string, shards, band int) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("shard: writing topology record: %w", err)
		}
	}()
	tmp := filepath.Join(dir, metaFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = fmt.Fprintf(f, "shards %d band %d\n", shards, band); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, metaFile)); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// readMeta reads the topology record; ok is false when none exists yet
// (a fresh directory). An empty record with no shard directory beside
// it is the remnant of a create torn by a crash under the old
// non-atomic writer: nothing was ever stored under it, so it counts as
// absent and Open rewrites it instead of rejecting the store forever.
func readMeta(dir string) (shards, band int, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, metaFile))
	if os.IsNotExist(err) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("shard: reading topology record: %w", err)
	}
	if len(data) == 0 {
		if _, serr := os.Stat(filepath.Join(dir, shardDir(0))); os.IsNotExist(serr) {
			return 0, 0, false, nil
		}
	}
	if shards, band, err = parseMeta(data); err != nil {
		return 0, 0, false, err
	}
	return shards, band, true, nil
}

// parseMeta parses a topology record ("shards N band B").
func parseMeta(data []byte) (shards, band int, err error) {
	if _, err := fmt.Sscanf(string(data), "shards %d band %d", &shards, &band); err != nil || shards < 1 || band < 1 {
		return 0, 0, fmt.Errorf("shard: malformed topology record %q", string(data))
	}
	return shards, band, nil
}

// Shards returns the shard count.
func (n *Node) Shards() int { return n.opts.Shards }

// ShardStats snapshots each shard's health and ADS-source counters, in
// shard order. The node's proof counters are ProofStats.
func (n *Node) ShardStats() []Stats {
	out := make([]Stats, len(n.shards))
	for i, w := range n.shards {
		out[i] = w.stats()
		out[i].ADS = n.SlotADSStats(i)
	}
	return out
}
