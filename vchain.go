// Package vchain is a Go implementation of vChain (Xu, Zhang, Xu;
// SIGMOD 2019): verifiable Boolean range queries over blockchain
// databases.
//
// A vChain deployment has three roles sharing one System configuration:
//
//   - a Miner (full node) that embeds an accumulator-based
//     authenticated data structure into every block it appends;
//   - a service provider (SP, also a full node) that answers
//     time-window and subscription queries, returning results together
//     with a verification object (VO);
//   - a LightClient that stores block headers only and uses VOs to
//     verify both the soundness and the completeness of every result
//     set, without trusting the SP.
//
// Quickstart:
//
//	sys, _ := vchain.NewSystem(vchain.Config{})
//	node := sys.NewNode(1) // one shard; more spread the chain by height band
//	node.Mine([]vchain.Object{{ID: 1, TS: 1, V: []int64{42}, W: []string{"sedan"}}}, 1)
//
//	client := sys.NewLightClient()
//	client.SyncHeaders(node.Headers())
//
//	q := vchain.Query{EndBlock: 0, Bool: vchain.And(vchain.Or("sedan"))}
//	parts, _ := node.TimeWindow(q)
//	results, err := client.Verify(q, parts) // err == nil certifies integrity
//	_ = results
package vchain

import (
	"fmt"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/proofs"
	"github.com/vchain-go/vchain/internal/service"
	"github.com/vchain-go/vchain/internal/shard"
	"github.com/vchain-go/vchain/internal/subscribe"
)

// Re-exported data model. Object is a temporal object ⟨t, V, W⟩; Query
// is a Boolean range query (§3 of the paper).
type (
	// Object is a temporal data object.
	Object = chain.Object
	// ObjectID identifies an object.
	ObjectID = chain.ObjectID
	// Header is a block header (what light clients store).
	Header = chain.Header
	// Block is a full block.
	Block = chain.Block
	// Query is a Boolean range query.
	Query = core.Query
	// RangeCond is a numeric range predicate.
	RangeCond = core.RangeCond
	// Clause is an OR-set of a CNF condition.
	Clause = core.Clause
	// CNF is a monotone Boolean function in conjunctive normal form.
	CNF = core.CNF
	// VO is a verification object.
	VO = core.VO
	// WindowPart is a VO covering a contiguous span of a time-window
	// answer. A strict answer is one part at every shard count; a
	// degraded read returns one part per run between gaps.
	// LightClient.Verify settles all parts in one pairing batch.
	WindowPart = core.WindowPart
	// Gap is a contiguous sub-window a degraded answer could not
	// prove (its owning shard was down).
	Gap = core.Gap
	// DegradedResult is a verified partial answer: objects and parts
	// for the provable sub-windows plus the gaps, together tiling the
	// query window (LightClient.VerifyDegraded enforces exactly that).
	DegradedResult = core.DegradedResult
	// ShardStat is one shard's operational snapshot: health state,
	// decoded-ADS counters, failure/restart/breaker-trip totals.
	ShardStat = shard.Stats
	// ShardHealth is a shard's health state (ShardHealthy /
	// ShardDegraded / ShardQuarantined).
	ShardHealth = shard.Health
	// ShardRecovery reports a durable node's reopen outcome.
	ShardRecovery = shard.RecoveryReport
	// ShardReport is one shard's recovery outcome within a
	// ShardRecovery.
	ShardReport = shard.ShardReport
	// Publication is a subscription delivery.
	Publication = subscribe.Publication
	// DroppedError is what Node.Mine returns beside a mined block when
	// it dropped local subscriptions whose clause could not be proved
	// against the block; its IDs name them.
	DroppedError = subscribe.DroppedError
	// RemoteStream is a remote subscription's verified delivery
	// stream (SPClient.Subscribe). A Delivery with a nil Pub is the
	// stream's end, not a verdict: its Err is the transport error that
	// RemoteStream.Err returns once C closes.
	RemoteStream = service.Subscription
	// Delivery is one item of a RemoteStream: the pushed publication
	// plus its local verification outcome, or, with a nil Pub, the
	// stream's terminal error.
	Delivery = service.Delivery
	// IndexMode selects the ADS indexes (IndexNone / IndexIntra /
	// IndexBoth).
	IndexMode = core.IndexMode
	// ProofStats is a snapshot of a node's proof-engine counters
	// (proofs computed, cache hits/misses, aggregation groups).
	ProofStats = proofs.Stats
)

// Index modes (§5 basic, §6.1 intra-block, §6.2 inter-block). The zero
// value of Config.Index means "default" (IndexBoth); use IndexNone to
// explicitly disable all indexes.
const (
	// IndexNone disables both indexes (the basic scheme of §5). It is
	// a config-only sentinel: Config maps it to the internal nil mode.
	IndexNone  IndexMode = -1
	IndexIntra           = core.ModeIntra
	IndexBoth            = core.ModeBoth
)

// Or builds a disjunctive clause of keywords: Or("benz", "bmw") is
// ("Benz" ∨ "BMW").
func Or(keywords ...string) Clause { return core.KeywordClause(keywords...) }

// And conjoins clauses into a CNF: And(Or("sedan"), Or("benz", "bmw"))
// is "Sedan" ∧ ("Benz" ∨ "BMW").
func And(clauses ...Clause) CNF { return CNF(clauses) }

// Verification errors, re-exported for errors.Is checks.
var (
	// ErrSoundness marks tampered or non-matching results.
	ErrSoundness = core.ErrSoundness
	// ErrCompleteness marks omitted results or uncovered windows.
	ErrCompleteness = core.ErrCompleteness
	// ErrDegraded accompanies a verified DegradedResult whose window
	// has gaps: the answer is cryptographically sound but incomplete,
	// and the caller must decide whether a partial window will do.
	ErrDegraded = core.ErrDegraded
	// ErrShardUnavailable marks a strict query that touched a
	// quarantined shard (degraded reads turn it into a Gap instead).
	ErrShardUnavailable = shard.ErrShardUnavailable
)

// Shard health states (Node.ShardStats, Node.Health).
const (
	// ShardHealthy is a shard operating normally.
	ShardHealthy = shard.Healthy
	// ShardDegraded is a shard with recent failures below the breaker
	// threshold; it still serves but is one bad streak from
	// quarantine.
	ShardDegraded = shard.Degraded
	// ShardQuarantined is a shard whose circuit breaker tripped: it
	// rejects work until the supervisor restarts it from its log.
	ShardQuarantined = shard.Quarantined
)

// Config selects the cryptographic and indexing configuration shared by
// all roles of a deployment.
type Config struct {
	// Preset names the pairing parameters: "toy" (fast, insecure —
	// tests only) or "default" (≈80-bit classic setting). Empty means
	// "default".
	Preset string
	// Accumulator picks the construction: "acc1" (q-SDH, §5.2.1) or
	// "acc2" (q-DHE with aggregation, §5.2.2). Empty means "acc2".
	Accumulator string
	// Index selects the ADS indexes. The zero value means IndexBoth;
	// use IndexNone to explicitly disable all indexes.
	Index IndexMode
	// SkipListSize is ℓ, the number of inter-block skips (jumps 4, 8,
	// …, 2^(ℓ+1)). Default 3. Ignored unless Index == IndexBoth.
	SkipListSize int
	// BitWidth is the numeric attribute width. Default 16.
	BitWidth int
	// Capacity bounds accumulable multisets: for acc1 the maximum
	// multiset cardinality, for acc2 the element-domain bound q.
	// Default 4096.
	Capacity int
	// Difficulty is the proof-of-work difficulty in leading zero bits.
	// Default 8.
	Difficulty uint8
	// ADSCacheBlocks bounds a durable node's decoded-ADS cache to that
	// many blocks (split across its shards), so RAM
	// stays flat as the chain grows: blocks beyond the budget stay on
	// disk and page in on demand, each fetch re-verified against its
	// header. 0 leaves the cache unbounded — everything paged in stays
	// resident, matching the pre-paging footprint once warm. In-memory
	// nodes ignore it (their decoded set is the only copy).
	ADSCacheBlocks int
	// Seed, when non-empty, derives the accumulator trapdoor
	// deterministically (reproducible benchmarks and tests only).
	Seed []byte
}

func (c Config) withDefaults() Config {
	if c.Preset == "" {
		c.Preset = "default"
	}
	if c.Accumulator == "" {
		c.Accumulator = "acc2"
	}
	// The zero value means "unset": default to both indexes. An
	// explicit IndexNone maps to the internal nil mode. (Previously a
	// set SkipListSize silently left Index at the nil zero value,
	// disabling all indexes.)
	if c.Index == 0 {
		c.Index = IndexBoth
	} else if c.Index == IndexNone {
		c.Index = core.ModeNil
	}
	if c.SkipListSize == 0 {
		c.SkipListSize = 3
	}
	if c.BitWidth == 0 {
		c.BitWidth = 16
	}
	if c.Capacity == 0 {
		c.Capacity = 4096
	}
	if c.Difficulty == 0 {
		c.Difficulty = 8
	}
	return c
}

// System bundles the shared cryptographic state of one deployment. All
// nodes and clients of the same chain must be created from the same
// System (they share the accumulator public key). Proof engines belong
// to the nodes (Node.ProofStats).
type System struct {
	cfg Config
	acc accumulator.Accumulator
}

// NewSystem validates the configuration and runs the accumulator key
// generation.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	pr, err := pairing.Lookup(cfg.Preset)
	if err != nil {
		return nil, fmt.Errorf("vchain: %w", err)
	}
	var acc accumulator.Accumulator
	switch cfg.Accumulator {
	case "acc1":
		if len(cfg.Seed) > 0 {
			acc = accumulator.KeyGenCon1Deterministic(pr, cfg.Capacity, cfg.Seed)
		} else {
			acc, err = accumulator.KeyGenCon1(pr, cfg.Capacity)
		}
	case "acc2":
		enc := accumulator.HashEncoder{Q: cfg.Capacity}
		if len(cfg.Seed) > 0 {
			acc = accumulator.KeyGenCon2Deterministic(pr, cfg.Capacity, enc, cfg.Seed)
		} else {
			acc, err = accumulator.KeyGenCon2(pr, cfg.Capacity, enc)
		}
	default:
		return nil, fmt.Errorf("vchain: unknown accumulator %q (want acc1 or acc2)", cfg.Accumulator)
	}
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, acc: acc}, nil
}

// Config returns the effective (defaulted) configuration.
func (s *System) Config() Config { return s.cfg }

// Accumulator exposes the shared accumulator (public part).
func (s *System) Accumulator() accumulator.Accumulator { return s.acc }
