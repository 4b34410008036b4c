package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/adstore"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/proofs"
	"github.com/vchain-go/vchain/internal/storage"
)

// ADSSource is the node's decoded-ADS store: resident (every ADS in
// RAM, the historical behavior) or paged (a bounded LRU over the
// storage backend, so node footprint no longer grows with chain
// length). See internal/adstore.
type ADSSource = adstore.Source[*BlockADS]

// FullNode is a miner/SP node: the chain store plus the per-block ADS
// bodies (only the roots of which live in headers). It implements
// ChainView for the Builder and the SP.
//
// Every (block, ADS) pair enters the node through one atomic commit
// pipeline (commitLocked) that validates, persists to the owning
// storage slot, and publishes both halves under a single lock —
// readers can never observe the chain height advanced without the
// matching ADS.
//
// Where a block's record and decoded ADS live is a placement decision,
// not a second kind of node: heights are dealt to N ≥ 1 storage slots
// in contiguous bands, owner(h) = (h/Band) % N. A plain node is the
// one-slot case; internal/shard layers topology and health supervision
// over N slots. A time-window query is one walk over the window's
// serving heights (plan.go), so the answer never depends on the slot
// count.
type FullNode struct {
	// Store is the in-RAM block index: headers and validation rules.
	// It is populated exclusively through the commit pipeline; external
	// callers must treat it as read-only.
	Store *chain.Store
	// Builder constructs the ADS for mined blocks.
	Builder *Builder

	// mu serializes the commit pipeline and slot replacement. Readers
	// never take it: ADSAt gates on the store height and loads the
	// owning slot atomically, so a slow page-in never stalls mining and
	// vice versa.
	mu    sync.Mutex
	band  int
	slots []atomic.Pointer[slot]
	// cacheBlocks is the node-wide decoded-ADS budget (WithADSCache),
	// split evenly across the slots.
	cacheBlocks int

	// Guard, when set, vetoes and observes work per slot (the shard
	// layer's circuit breakers). Set it before the first commit.
	Guard SlotGuard

	// Proofs is the node's shared proof engine: every SP derived from
	// this node routes its disjointness proofs through it, so repeated
	// and overlapping queries reuse cached proofs. Set it (e.g. to a
	// deployment-wide engine) before the first SP call; left nil, a
	// default engine is created lazily.
	Proofs   *proofs.Engine
	proofsMu sync.Mutex

	// SetupStats accumulates miner-side ADS construction cost, feeding
	// Table 1.
	SetupStats SetupStats
}

// slot is one storage placement: a backend and the decoded-ADS source
// over it (resident for an ephemeral backend, a paged LRU otherwise).
// A slot is immutable; RestartSlot replaces it whole.
type slot struct {
	backend storage.Backend
	ads     ADSSource
}

// SlotGuard lets the layer above veto a slot's work and observe its
// storage outcomes. Queries call it concurrently with the commit path.
type SlotGuard interface {
	// Admit returns a non-nil error to refuse the slot work: a commit
	// before any byte is written, or a window's heights before any walk.
	Admit(slot int) error
	// Report delivers a storage outcome on the slot: every backend
	// Append (under the commit lock), and every page-in failure that
	// turns a degraded read's heights into a gap.
	Report(slot int, err error)
}

// SetupStats aggregates ADS construction measurements.
type SetupStats struct {
	// Blocks is the number of blocks built.
	Blocks int
	// BuildTime is the total ADS construction time.
	BuildTime time.Duration
	// ADSBytes is the total ADS size.
	ADSBytes int
}

// NodeOption tunes a FullNode's ADS residency.
type NodeOption func(*FullNode)

// WithADSCache bounds the node's decoded-ADS cache to at most blocks
// entries, split evenly across its slots (each keeps at least one);
// <= 0 leaves the entry count unbounded. It only applies to slots over
// a durable backend — an ephemeral slot's decoded set is its only copy
// and stays fully resident.
func WithADSCache(blocks int) NodeOption {
	return func(n *FullNode) { n.cacheBlocks = blocks }
}

// NewFullNode creates an ephemeral node with the given proof-of-work
// difficulty and ADS builder: nothing survives the process, and no
// persistence cost is paid. Use NewFullNodeOn for durability.
func NewFullNode(difficulty chain.Difficulty, b *Builder) *FullNode {
	n, err := NewFullNodeOn(difficulty, b, storage.NewNull())
	if err != nil {
		// Impossible: an empty backend has nothing to replay.
		panic(err)
	}
	return n
}

// NewFullNodeOn creates a one-slot node over an existing storage
// backend; see NewBandedNode.
func NewFullNodeOn(difficulty chain.Difficulty, b *Builder, be storage.Backend, opts ...NodeOption) (*FullNode, error) {
	n, _, err := NewBandedNode(difficulty, b, 1, []storage.Backend{be}, opts...)
	return n, err
}

// NewBandedNode creates a node over one storage backend per slot, with
// band consecutive heights per slot turn. The reopen is index-only:
// records replay in height order across the slots, each record's block
// half decoded and re-validated against the difficulty and linkage
// rules, while the ADS bodies stay on the backends until a query pages
// them in — at which point they are checked against their header
// commitments (a verified fetch), so cold start costs one block decode
// per record, not a re-mine and not even an ADS decode. The first slot
// that runs out of records bounds the restored chain; later heights may
// exist in other slots, but without the gap filled they can never be
// served or re-validated, so they are truncated and counted per slot in
// stranded. Without WithADSCache the paged sets are unbounded
// (everything faulted in stays). The node owns the backends on success
// (Close closes them); every block mined later is persisted to its
// owning slot at commit time.
func NewBandedNode(difficulty chain.Difficulty, b *Builder, band int, backends []storage.Backend, opts ...NodeOption) (n *FullNode, stranded []int, err error) {
	n = &FullNode{
		Store:   chain.NewStore(difficulty),
		Builder: b,
		band:    band,
		slots:   make([]atomic.Pointer[slot], len(backends)),
	}
	for _, o := range opts {
		o(n)
	}
	for i, be := range backends {
		n.slots[i].Store(n.newSlot(be))
	}
	cursors := make([]int, len(backends))
	for {
		h := n.Store.Height()
		o := n.Owner(h)
		if cursors[o] >= backends[o].Len() {
			break
		}
		data, err := backends[o].Read(cursors[o])
		if err != nil {
			return nil, nil, fmt.Errorf("core: slot %d: reading stored block %d: %w", o, h, err)
		}
		blk, err := decodeRecordBlock(data)
		if err != nil {
			return nil, nil, fmt.Errorf("core: slot %d: stored block %d: %w", o, h, err)
		}
		if err := n.Store.Append(blk); err != nil {
			return nil, nil, fmt.Errorf("core: slot %d: stored block %d rejected: %w", o, h, err)
		}
		cursors[o]++
	}
	stranded = make([]int, len(backends))
	for i, be := range backends {
		if stranded[i] = be.Len() - cursors[i]; stranded[i] > 0 {
			if err := be.Truncate(cursors[i]); err != nil {
				return nil, nil, fmt.Errorf("core: slot %d: truncating %d stranded records: %w", i, stranded[i], err)
			}
		}
	}
	return n, stranded, nil
}

// newSlot pairs a backend with its decoded-ADS source. A paged source
// reads through its own backend, so after RestartSlot an in-flight
// page-in against the closed old backend fails cleanly instead of
// touching the new one.
func (n *FullNode) newSlot(be storage.Backend) *slot {
	if _, ephemeral := be.(storage.Ephemeral); ephemeral {
		return &slot{backend: be, ads: adstore.NewResident[*BlockADS]()}
	}
	perSlot := 0
	if n.cacheBlocks > 0 {
		perSlot = max(n.cacheBlocks/len(n.slots), 1)
	}
	return &slot{backend: be, ads: adstore.NewPaged(adstore.PagedConfig[*BlockADS]{
		Read:       func(h int) ([]byte, error) { return be.Read(n.heightRecord(h)) },
		Decode:     n.decodePagedADS,
		Size:       func(ads *BlockADS) int { return ads.SizeBytes(n.Builder.Acc) },
		MaxEntries: perSlot,
	})}
}

// decodePagedADS is the paged sources' decode callback: it decodes the
// ADS half of the record at height and re-verifies the commitments the
// lazy reopen deferred — the rebuilt roots must match the validated
// header, so a tampered record surfaces at page-in exactly as it would
// have at an eager open.
func (n *FullNode) decodePagedADS(height int, data []byte) (*BlockADS, error) {
	ads, err := DecodeChainRecordADS(data)
	if err != nil {
		return nil, fmt.Errorf("core: stored block %d: %w", height, err)
	}
	hdr, err := n.HeaderAt(height)
	if err != nil {
		return nil, fmt.Errorf("core: paging in ADS %d: %w", height, err)
	}
	if err := VerifyADSCommitments(n.Builder, hdr, height, ads); err != nil {
		return nil, fmt.Errorf("core: paging in ADS %d: %w", height, err)
	}
	return ads, nil
}

// Owner returns the slot owning height h.
func (n *FullNode) Owner(h int) int { return (h / n.band) % len(n.slots) }

// heightRecord maps a chain height to its record index within the
// owning slot's backend (the inverse of recordHeight): height h sits in
// global round h/(band*slots), at offset h%band within the band.
func (n *FullNode) heightRecord(h int) int {
	return h/(n.band*len(n.slots))*n.band + h%n.band
}

// recordHeight maps slot record index r back to its chain height:
// record r sits in the slot's (r/band)-th owned band, at offset r%band
// within it.
func (n *FullNode) recordHeight(slot, r int) int {
	return ((r/n.band)*len(n.slots)+slot)*n.band + r%n.band
}

// ownedRecords returns how many heights below h the slot owns — the
// record count its backend must hold for a chain of height h.
func (n *FullNode) ownedRecords(slot, h int) int {
	count := 0
	for base := slot * n.band; base < h; base += len(n.slots) * n.band {
		count += min(h-base, n.band)
	}
	return count
}

// RestartSlot closes slot i's backend and replaces it with the one
// reopen returns, after checking that it holds exactly the records for
// the heights the slot owns below the chain height and that every
// record's block header matches the chain index. Surplus records can
// exist when a faulted append landed valid bytes that the commit
// pipeline rolled back logically — they are dropped. The decoded-ADS
// set is NOT rebuilt: the slot comes back with an empty source and
// repopulates lazily as queries fault heights in (each page-in verified
// against its header), so the cost is one block decode per owned record
// regardless of ADS size. Commits pause under the node lock for the
// duration (a restart is rare and the slot's alternative is serving
// nothing at all). On failure the slot keeps its closed backend.
//
//vchainlint:ignore lockio restart re-opens and verifies the log under a deliberate whole-node pause
func (n *FullNode) RestartSlot(i int, reopen func() (storage.Backend, error)) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	// Close the sick backend first: a block log holds a directory
	// flock that the re-open needs.
	n.slots[i].Load().backend.Close()
	be, err := reopen()
	if err != nil {
		return err
	}
	if err := n.verifySlot(i, be); err != nil {
		be.Close()
		return err
	}
	n.slots[i].Store(n.newSlot(be))
	return nil
}

// verifySlot is RestartSlot's consistency check of a reopened backend
// against the chain index.
func (n *FullNode) verifySlot(i int, be storage.Backend) error {
	want := n.ownedRecords(i, n.Store.Height())
	if be.Len() > want {
		if err := be.Truncate(want); err != nil {
			return fmt.Errorf("truncating %d surplus records: %w", be.Len()-want, err)
		}
	}
	if be.Len() < want {
		return fmt.Errorf("log holds %d records, chain height %d requires %d", be.Len(), n.Store.Height(), want)
	}
	for r := 0; r < want; r++ {
		h := n.recordHeight(i, r)
		data, err := be.Read(r)
		if err != nil {
			return fmt.Errorf("reading record %d (height %d): %w", r, h, err)
		}
		blk, err := decodeRecordBlock(data)
		if err != nil {
			return fmt.Errorf("record %d (height %d): %w", r, h, err)
		}
		hdr, err := n.HeaderAt(h)
		if err != nil {
			return fmt.Errorf("record %d: no stored header at height %d: %w", r, h, err)
		}
		if blk.Header.Hash() != hdr.Hash() {
			return fmt.Errorf("record %d (height %d): header diverges from chain", r, h)
		}
	}
	return nil
}

// Close releases every slot's backend. The node must not be used
// afterwards.
func (n *FullNode) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	var firstErr error
	for i := range n.slots {
		if err := n.slots[i].Load().backend.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ADSAt implements ChainView: (nil, nil) for a height with no block,
// the ADS (paged in from the owning slot if necessary) for a committed
// height. A page-in failure — IO error, corrupt record, failed
// commitment check — comes back as the error; callers must surface it,
// not treat it as absence.
func (n *FullNode) ADSAt(height int) (*BlockADS, error) {
	if height < 0 || height >= n.Store.Height() {
		return nil, nil
	}
	ads, err := n.slots[n.Owner(height)].Load().ads.At(height)
	if err != nil {
		return nil, fmt.Errorf("core: ADS at height %d: %w", height, err)
	}
	if ads == nil {
		return nil, fmt.Errorf("core: no ADS at committed height %d", height)
	}
	return ads, nil
}

// SlotADSStats snapshots one slot's ADS-source counters (cache hits,
// misses, decodes, footprint).
func (n *FullNode) SlotADSStats(i int) adstore.Stats { return n.slots[i].Load().ads.Stats() }

// ADSStats sums the ADS-source counters over every slot.
func (n *FullNode) ADSStats() adstore.Stats {
	var total adstore.Stats
	for i := range n.slots {
		s := n.SlotADSStats(i)
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Decodes += s.Decodes
		total.Evictions += s.Evictions
		total.Entries += s.Entries
		total.Bytes += s.Bytes
	}
	return total
}

// HeaderAt implements ChainView.
func (n *FullNode) HeaderAt(height int) (chain.Header, error) {
	b, err := n.Store.BlockAt(height)
	if err != nil {
		return chain.Header{}, err
	}
	return b.Header, nil
}

// MineBlock builds the ADS for objs, solves proof-of-work, and commits
// the block to its owning slot. It returns the new block.
func (n *FullNode) MineBlock(objs []chain.Object, ts int64) (*chain.Block, error) {
	height := n.Store.Height()

	start := time.Now()
	ads, err := n.Builder.BuildBlock(height, objs, n)
	if err != nil {
		return nil, fmt.Errorf("core: building ADS: %w", err)
	}
	buildTime := time.Since(start)

	hdr := chain.Header{
		Height:       uint64(height),
		TS:           ts,
		MerkleRoot:   ads.MerkleRoot(),
		SkipListRoot: ads.SkipListRoot(n.Builder.Acc),
	}
	if tip := n.Store.Tip(); tip != nil {
		hdr.PrevHash = tip.Header.Hash()
		if ts < tip.Header.TS {
			hdr.TS = tip.Header.TS
		}
	}
	solved, err := chain.SolvePoW(hdr, n.Store.Difficulty())
	if err != nil {
		return nil, err
	}
	blk := &chain.Block{Header: solved, Objects: objs}
	adsBytes := ads.SizeBytes(n.Builder.Acc) // counted by the build, not re-encoded

	// One atomic commit: validate, persist, publish block and ADS under
	// a single lock. A concurrent reader can never see the store at
	// h+1 with ADSAt(h) still nil, and a losing concurrent miner fails
	// cleanly here without touching any state.
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.commitLocked(blk, ads); err != nil {
		return nil, err
	}
	n.SetupStats.Blocks++
	n.SetupStats.BuildTime += buildTime
	n.SetupStats.ADSBytes += adsBytes
	return blk, nil
}

// ProofEngine returns the node's shared proof engine, creating a
// default one (proving on GOMAXPROCS goroutines, default cache) on
// first use.
func (n *FullNode) ProofEngine() *proofs.Engine {
	n.proofsMu.Lock()
	defer n.proofsMu.Unlock()
	if n.Proofs == nil {
		n.Proofs = proofs.New(n.Builder.Acc, proofs.Options{})
	}
	return n.Proofs
}

// SP returns a query engine over this node's chain, backed by the
// shared proof engine.
func (n *FullNode) SP(batch bool) *SP {
	return &SP{Acc: n.Builder.Acc, View: n, Batch: batch, Engine: n.ProofEngine()}
}

// Acc exposes the node's accumulator (public part) for verifiers.
func (n *FullNode) Acc() accumulator.Accumulator { return n.Builder.Acc }

// Height returns the chain height.
func (n *FullNode) Height() int { return n.Store.Height() }

// Headers returns every block header (what light clients sync).
func (n *FullNode) Headers() []chain.Header { return n.Store.Headers() }

// BitWidth returns the builder's numeric attribute width.
func (n *FullNode) BitWidth() int { return n.Builder.Width }

// ProofStats snapshots the node's proof-engine counters — the whole
// node's, since every query and subscription proves on that engine.
func (n *FullNode) ProofStats() proofs.Stats { return n.ProofEngine().Stats() }
