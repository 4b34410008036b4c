package vchain

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/service"
	"github.com/vchain-go/vchain/internal/shard"
	"github.com/vchain-go/vchain/internal/subscribe"
)

// Node is a miner and service provider over one chain: it mines
// ADS-carrying blocks, answers time-window queries with VOs, and runs
// the subscription engine. Its chain is spread over N ≥ 1 shards —
// height bands, each with its own block store and decoded-ADS cache —
// while every proof, for queries and subscriptions alike, runs on the
// node's one proof engine (GOMAXPROCS goroutines, one cache).
// Sharding is a placement decision, not a second kind of node: every
// operation works at every N, and a strict query answer is one
// WindowPart, byte for byte the same at every N. LightClient.Verify
// settles it in a single pairing-product batch.
type Node struct {
	sys      *System
	node     *shard.Node
	recovery *ShardRecovery

	// mu guards the lazily created subscription engine, its fixed
	// options, and the attached service endpoint.
	mu         sync.Mutex
	engine     *subscribe.Engine
	engineOpts SubscribeOptions
	srv        *service.Server
}

// builder constructs the system's ADS builder configuration.
func (s *System) builder() *core.Builder {
	return &core.Builder{
		Acc:      s.acc,
		Mode:     s.cfg.Index,
		SkipSize: s.cfg.SkipListSize,
		Width:    s.cfg.BitWidth,
	}
}

// shardOptions maps the system configuration onto shard options.
func (s *System) shardOptions(shards int) shard.Options {
	return shard.Options{
		Shards:         shards,
		ADSCacheBlocks: s.cfg.ADSCacheBlocks,
	}
}

// NewNode creates an in-memory node (miner + SP) with the given shard
// count (values < 1 mean 1): nothing survives the process. Use OpenNode
// for a node whose chain persists across restarts.
func (s *System) NewNode(shards int) *Node {
	node := shard.New(chain.Difficulty(s.cfg.Difficulty), s.builder(), s.shardOptions(shards))
	return &Node{sys: s, node: node}
}

// OpenNode opens (or creates) a durable node rooted at dir: one
// crash-safe block-log subdirectory per shard (shard-000, …, each
// with its own flock and torn-tail recovery) plus a topology record
// fixing the partitioning. Every mined block is persisted atomically at
// commit time. Reopening is index-only: heights replay in order across
// the shards and the headers re-validate immediately, while ADS bodies
// stay on disk and page in on first use (bounded by
// Config.ADSCacheBlocks), each fetch re-verified against its header —
// never rebuilt — so a restarted SP serves verifiable queries without
// first decoding the whole chain. A shard whose tail was lost to a
// crash bounds the restored chain and the other shards truncate their
// stranded records, so mining resumes from a mutually consistent state;
// inspect Recovery for the per-shard outcome. Passing shards < 1 adopts
// the directory's recorded shard count (1 for a fresh directory); a
// conflicting explicit count is an error. The accumulator public key is
// not part of the store (it is deployment configuration): this System
// must use the key that produced it, or the header and page-in
// cross-checks will reject the chain. Call Close when done.
func (s *System) OpenNode(dir string, shards int) (*Node, error) {
	node, report, err := shard.Open(chain.Difficulty(s.cfg.Difficulty), s.builder(), dir, s.shardOptions(shards))
	if err != nil {
		return nil, fmt.Errorf("vchain: opening block store: %w", err)
	}
	return &Node{sys: s, node: node, recovery: report}, nil
}

// Recovery returns the reopen report (nil for in-memory nodes): chain
// length restored plus each shard's torn-tail and stranded-record
// counts.
func (n *Node) Recovery() *ShardRecovery { return n.recovery }

// Close releases every shard's block store. The node — in-memory or
// durable — must not be used afterwards.
func (n *Node) Close() error { return n.node.Close() }

// Mine appends a block of objects with the given timestamp — it commits
// atomically to its owning shard — and returns the new block. Registered
// subscriptions are processed automatically; due publications are
// returned alongside. A subscription whose clause cannot be proved
// disjoint from the block (a hash-encoder collision) is dropped: Mine
// then returns the block and the other publications with a
// *DroppedError naming the dropped ids, so a caller tells it apart
// from a failed mine with errors.As. A remote subscription dropped so
// ends its own stream with ErrSubscriptionDropped; its client's
// connection and other streams go on.
func (n *Node) Mine(objs []Object, ts int64) (*Block, []Publication, error) {
	blk, err := n.node.MineBlock(objs, ts)
	if err != nil {
		return nil, nil, err
	}
	n.mu.Lock()
	engine, srv := n.engine, n.srv
	n.mu.Unlock()
	var pubs []Publication
	var dropped *DroppedError
	if engine != nil {
		ads, err := n.node.ADSAt(int(blk.Header.Height))
		if err != nil {
			return nil, nil, fmt.Errorf("vchain: subscriptions: %w", err)
		}
		pubs, err = engine.ProcessBlock(ads, n.node)
		if err != nil && !errors.As(err, &dropped) {
			return nil, nil, fmt.Errorf("vchain: subscriptions: %w", err)
		}
	}
	if srv != nil {
		// Remote subscribers ride the service server's own engine;
		// fan-out to their connections happens here, on the mining
		// path, with slow consumers evicted rather than awaited.
		if err := srv.ProcessBlock(int(blk.Header.Height)); err != nil {
			return nil, nil, fmt.Errorf("vchain: remote subscriptions: %w", err)
		}
	}
	if dropped != nil {
		return blk, pubs, dropped
	}
	return blk, pubs, nil
}

// Height returns the chain height.
func (n *Node) Height() int { return n.node.Height() }

// Shards returns the shard count.
func (n *Node) Shards() int { return n.node.Shards() }

// Headers returns all block headers (what light clients sync).
func (n *Node) Headers() []Header { return n.node.Headers() }

// BlockAt returns a block by height.
func (n *Node) BlockAt(height int) (*Block, error) { return n.node.Store.BlockAt(height) }

// WindowByTime resolves a timestamp window [ts, te] to block heights
// (the form queries take in the paper, §3). Pair with TimeWindow:
//
//	start, end, ok := node.WindowByTime(tsStart, tsEnd)
//	q.StartBlock, q.EndBlock = start, end
func (n *Node) WindowByTime(ts, te int64) (start, end int, ok bool) {
	return n.node.Store.WindowByTime(ts, te)
}

// TimeWindow answers a time-window query with one window part spanning
// the window, at every shard count. Verify with LightClient.Verify;
// results are embedded (WindowPart.VO.Results()). Under acc2 every
// mismatch of one clause shares one aggregated proof (§6.3); acc1
// proves each on its own. All of the query's proofs run as one batch
// on up to GOMAXPROCS goroutines.
func (n *Node) TimeWindow(q Query) ([]WindowPart, error) {
	return n.node.TimeWindowParts(context.Background(), q, true)
}

// TimeWindowDegraded answers a time-window query in degraded-read
// mode: the heights of quarantined shards (or of a shard whose storage
// fails mid-query) come back as machine-readable Gaps instead of
// failing the whole query, with one part per run of serving heights.
// Parts and gaps together tile the window, descending; verify the pair
// with LightClient.VerifyDegraded.
func (n *Node) TimeWindowDegraded(q Query) ([]WindowPart, []Gap, error) {
	return n.node.TimeWindowDegraded(context.Background(), q)
}

// Health reports one shard's current health state.
func (n *Node) Health(shardIdx int) ShardHealth { return n.node.Health(shardIdx) }

// Quarantine trips one shard's circuit breaker by hand (operational
// fencing: e.g. its disk is known-bad). Strict queries touching the
// shard fail with ErrShardUnavailable; degraded reads gap it out. The
// supervisor (or RestartShard) brings it back.
func (n *Node) Quarantine(shardIdx int, reason error) error {
	return n.node.Quarantine(shardIdx, reason)
}

// RestartShard re-opens one quarantined shard from its durable log:
// torn-tail recovery, surplus-record truncation, and a full header
// re-verification of every restored block against the chain index. On
// success the shard is healthy and serving again.
func (n *Node) RestartShard(shardIdx int) error { return n.node.RestartShard(shardIdx) }

// Supervise starts the shard supervisor: every interval it scans for
// quarantined shards past their breaker cooldown and restarts them
// from their logs. It returns a stop function; call it before Close.
func (n *Node) Supervise(interval time.Duration) (stop func()) {
	return n.node.Supervise(interval)
}

// ProofStats snapshots the node's proof-engine counters: proofs
// computed, cache hits/misses, evictions, and aggregation groups. One
// engine serves queries and subscriptions at every shard count, so this
// is the whole node.
func (n *Node) ProofStats() ProofStats { return n.node.ProofStats() }

// ShardStats snapshots each shard's operational state, in shard
// order: health, decoded-ADS counters, and failure/restart/breaker
// totals.
func (n *Node) ShardStats() []ShardStat { return n.node.ShardStats() }

// SubscribeOptions configure the node's subscription engine. The
// engine is created on the first Subscribe call; every later call must
// carry equivalent options (the engine is shared across all of a
// node's subscriptions, so differing options cannot be honored and are
// rejected with an error rather than silently ignored). The engine
// always shares clause evaluation and proofs across queries by the
// IP-tree's clause groups (its BCIF, §7.1).
type SubscribeOptions struct {
	// LazyThreshold caps a subscription's pending span (§7.2): 0 or 1
	// publishes every block, and n > 1 holds mismatch blocks back until
	// the span covers n blocks, however many of them collapsed into
	// skips. DefaultLazyThreshold is the lazy setting of the paper's
	// figures.
	LazyThreshold int
}

// DefaultLazyThreshold is the §7.2 pending-span bound that the
// lazy examples and figures use.
const DefaultLazyThreshold = subscribe.DefaultLazyThreshold

// normalize maps the defaulted fields onto the engine's effective
// values so option comparison treats LazyThreshold 0 and 1 as equal.
func (o SubscribeOptions) normalize() SubscribeOptions {
	o.LazyThreshold = max(o.LazyThreshold, 1)
	return o
}

// Subscribe registers a continuous query (its window fields are
// ignored) and returns its subscription id. The first call fixes the
// engine options; a later call with conflicting options is an error.
func (n *Node) Subscribe(q Query, opts SubscribeOptions) (int, error) {
	n.mu.Lock()
	if n.engine == nil {
		n.engine = subscribe.NewEngine(n.sys.acc, n.engineOptions(opts))
		n.engineOpts = opts.normalize()
	} else if got := opts.normalize(); got != n.engineOpts {
		n.mu.Unlock()
		return 0, fmt.Errorf("vchain: subscription options %+v conflict with the engine's %+v "+
			"(options are fixed by the first Subscribe call)", got, n.engineOpts)
	}
	engine := n.engine
	n.mu.Unlock()
	return engine.Register(q)
}

// engineOptions maps facade subscription options onto the internal
// engine's, wiring in the node's proof engine (used by both local
// Subscribe and Serve so the two paths cannot drift).
func (n *Node) engineOptions(opts SubscribeOptions) subscribe.Options {
	return subscribe.Options{
		UseIPTree:     true,
		LazyThreshold: opts.LazyThreshold,
		Proofs:        n.node.ProofEngine(),
	}
}

// Unsubscribe deregisters a query, returning any final pending
// publication.
func (n *Node) Unsubscribe(id int) *Publication {
	n.mu.Lock()
	engine := n.engine
	n.mu.Unlock()
	if engine == nil {
		return nil
	}
	return engine.Deregister(id)
}

// RemoteSP is a running TCP service endpoint for one node (Node.Serve):
// header sync, verifiable queries, and streaming subscriptions for
// remote light clients.
type RemoteSP struct {
	srv    *service.Server
	addr   string
	detach func()
}

// Addr returns the bound listen address.
func (r *RemoteSP) Addr() string { return r.addr }

// Evictions reports connections dropped for slow consumption.
func (r *RemoteSP) Evictions() int { return r.srv.Evictions() }

// Close stops serving and disconnects every client. The node detaches
// from the endpoint: mining stops fanning out to it and Serve may be
// called again.
func (r *RemoteSP) Close() error {
	r.detach()
	return r.srv.Close()
}

// Serve exposes this node over TCP at addr ("127.0.0.1:0" picks a
// port): remote light clients can sync headers, run verifiable
// time-window queries (answered as window parts that verify in one
// batch), and register streaming subscriptions. The subscription
// options configure the server's engine (shared by all remote
// subscribers and backed by the node's proof engine); publications are
// sourced from the owning shard and fan out on the mining path as
// blocks are appended.
// A node serves at most one endpoint at a time.
func (n *Node) Serve(addr string, opts SubscribeOptions) (*RemoteSP, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.srv != nil {
		return nil, fmt.Errorf("vchain: node already serving")
	}
	srv := service.NewServer(n.node, service.ServerConfig{
		Subscriptions: n.engineOptions(opts),
	})
	bound, err := srv.Serve(addr)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	detach := func() {
		n.mu.Lock()
		if n.srv == srv {
			n.srv = nil
		}
		n.mu.Unlock()
	}
	return &RemoteSP{srv: srv, addr: bound, detach: detach}, nil
}
