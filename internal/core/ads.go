package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/multiset"
)

// IndexMode selects which authenticated indexes a block carries,
// matching the three schemes of the evaluation (§9.1).
type IndexMode int

const (
	// ModeNil builds only per-object AttDigests (the basic solution of
	// §5): the SP must prove each object individually.
	ModeNil IndexMode = iota
	// ModeIntra adds the Jaccard-clustered intra-block Merkle index
	// (§6.1), letting the SP prune whole subtrees.
	ModeIntra
	// ModeBoth additionally builds the inter-block skip list (§6.2),
	// letting the SP prune whole runs of blocks.
	ModeBoth
)

func (m IndexMode) String() string {
	switch m {
	case ModeNil:
		return "nil"
	case ModeIntra:
		return "intra"
	case ModeBoth:
		return "both"
	default:
		return fmt.Sprintf("IndexMode(%d)", int(m))
	}
}

// IntraNode is a node of the intra-block index (Defs. 6.1 and 6.2). In
// ModeNil the tree still exists (it is the plain object Merkle tree of
// Fig. 2) but internal nodes carry no attribute data and no digest.
type IntraNode struct {
	// Hash is the node hash: H(preHash ‖ accBytes) when the node
	// carries a digest, preHash alone otherwise. See preHash below.
	// BuildBlock and VerifyADSCommitments derive it; a decoded ADS has
	// none until verified.
	Hash chain.Digest
	// Digest is acc(W) for the node's attribute multiset W, which is
	// not stored: Multiset derives it. Zero-valued for internal nodes
	// in ModeNil.
	Digest accumulator.Acc
	// HasDigest reports whether Digest is meaningful.
	HasDigest bool
	// Left and Right are the children (nil for leaves).
	Left, Right *IntraNode
	// Obj is the underlying object for leaf nodes.
	Obj *chain.Object
}

// IsLeaf reports whether the node is a leaf.
func (n *IntraNode) IsLeaf() bool { return n.Obj != nil }

// Multiset returns the node's attribute multiset, built on each call
// from the objects below it: a leaf's W' = trans(V) + W at the block's
// bit width (BlockADS.Width), or the union of the leaves below an
// internal node (Def. 6.1).
func (n *IntraNode) Multiset(width int) multiset.Multiset {
	if n.IsLeaf() {
		return ObjectMultiset(*n.Obj, width)
	}
	return multiset.Union(n.Left.Multiset(width), n.Right.Multiset(width))
}

// preHash is the digest-independent part of a node hash:
//
//	leaf:     H(0x00 ‖ objectHash)
//	internal: H(0x01 ‖ leftHash ‖ rightHash)
//
// The full node hash is H(0x02 ‖ preHash ‖ accBytes) when the node
// carries a digest, else the preHash itself. Mismatch VO entries ship
// the preHash, binding the digest into the Merkle root without
// revealing the subtree.
func leafPreHash(objHash chain.Digest) chain.Digest {
	return sha256.Sum256(append([]byte{0x00}, objHash[:]...))
}

func internalPreHash(l, r chain.Digest) chain.Digest {
	buf := make([]byte, 1, 1+2*len(l)+len(r))
	buf[0] = 0x01
	buf = append(buf, l[:]...)
	buf = append(buf, r[:]...)
	return sha256.Sum256(buf)
}

func nodeHash(pre chain.Digest, accBytes []byte) chain.Digest {
	if accBytes == nil {
		return pre
	}
	buf := make([]byte, 1, 1+len(pre)+len(accBytes))
	buf[0] = 0x02
	buf = append(buf, pre[:]...)
	buf = append(buf, accBytes...)
	return sha256.Sum256(buf)
}

// SkipEntry is one level of the inter-block skip list (§6.2) stored in
// the block at height h: it aggregates the Distance blocks
// [h−Distance+1, h] and records the header hash of the landing block
// h−Distance. The aggregated multiset, the sum of the covered blocks'
// BlockW, is not stored: BlockADS.skipSpans derives it. Under acc2 a
// digest is a sum of digests that exist: the four covered roots and
// earlier blocks' entries (Builder.skipDigests); acc1, which cannot add
// digests, runs Setup over the span.
type SkipEntry struct {
	// Distance is the jump length (4, 8, 16, … — powers of two).
	Distance int
	// PrevHash is the header hash of block h−Distance, which the
	// verifier checks against its own header store before jumping.
	PrevHash chain.Digest
	// Digest is acc(W) for the covered blocks' multiset sum W.
	Digest accumulator.Acc
}

// hashEntry is H(distance ‖ PrevHash ‖ accBytes) — the per-level leaf
// of the SkipListRoot commitment.
func (s *SkipEntry) hashEntry(acc accumulator.Accumulator) chain.Digest {
	var buf []byte
	var d8 [8]byte
	binary.BigEndian.PutUint64(d8[:], uint64(s.Distance))
	buf = append(buf, d8[:]...)
	buf = append(buf, s.PrevHash[:]...)
	buf = append(buf, acc.AccBytes(s.Digest)...)
	return sha256.Sum256(buf)
}

// SkipDistances returns the jump lengths for a skip list of the given
// size: 4, 8, …, 2^(size+1), matching the maximum-jump annotation of
// Figs. 20–22 (size 1 → max 4, size 3 → max 16, size 5 → max 64).
func SkipDistances(size int) []int {
	out := make([]int, 0, size)
	for j := 0; j < size; j++ {
		out = append(out, 1<<uint(j+2))
	}
	return out
}

// skipListRoot commits the per-level hashes (hashEntry), given in
// ascending distance order. The builder, the page-in check and the
// verifier all derive the header's SkipListRoot through it.
func skipListRoot(hashes []chain.Digest) chain.Digest {
	buf := make([]byte, 0, len(hashes)*len(chain.Digest{}))
	for _, h := range hashes {
		buf = append(buf, h[:]...)
	}
	return sha256.Sum256(buf)
}

// BlockADS is the full authenticated payload of one block: the
// intra-block index (or plain tree), the per-block attribute multiset,
// and the skip entries. The miner builds it; the SP reads it; only its
// two roots reach the header.
type BlockADS struct {
	// Height is the block height this ADS belongs to.
	Height int
	// Root is the intra-block index root.
	Root *IntraNode
	// Width is the numeric bit width the leaves' multisets are derived
	// at (IntraNode.Multiset).
	Width int
	// blockW is the block-level attribute multiset (union over
	// objects' W', so the root's multiset), the unit aggregated by skip
	// entries, packed: a node keeps every block's, and reads it only to
	// prove at the root, to sum skip spans and to encode the record.
	blockW multiset.Packed
	// Skips holds the inter-block entries (empty unless ModeBoth).
	Skips []SkipEntry
	// size is SizeBytes, counted while the node hashes are derived.
	size int
}

// BlockW returns the block-level attribute multiset: the union over the
// objects' W', so the root's multiset. Each call unpacks it anew.
func (a *BlockADS) BlockW() multiset.Multiset { return a.blockW.Unpack() }

// MerkleRoot returns the header commitment of the intra index.
func (a *BlockADS) MerkleRoot() chain.Digest { return a.Root.Hash }

// SkipListRoot returns the header commitment of the skip list (zero
// when the block has no skip entries).
func (a *BlockADS) SkipListRoot(acc accumulator.Accumulator) chain.Digest {
	if len(a.Skips) == 0 {
		return chain.Digest{}
	}
	hashes := make([]chain.Digest, len(a.Skips))
	for i := range a.Skips {
		hashes[i] = a.Skips[i].hashEntry(acc)
	}
	return skipListRoot(hashes)
}

// SizeBytes reports the ADS storage overhead of the block (Table 1's
// "ADS size" column): all index node hashes and digests plus skip
// entries, excluding the raw objects. It is counted when the node
// hashes are derived, so a decoded ADS reports 0 until
// VerifyADSCommitments has run on it.
func (a *BlockADS) SizeBytes(accumulator.Accumulator) int { return a.size }

// hash derives the hash of every node of a's tree bottom-up and sets
// a's size.
func (a *BlockADS) hash(acc accumulator.Accumulator) error {
	size, err := hashTree(acc, a.Root)
	if err != nil {
		return err
	}
	for i := range a.Skips {
		size += 8 + len(a.Skips[i].PrevHash) + len(acc.AccBytes(a.Skips[i].Digest))
	}
	a.size = size
	return nil
}

// hashTree sets the hash of n and of every node below it — a leaf's
// from its object, an internal node's from its children's, each with
// its digest — and returns the bytes SizeBytes counts for them.
func hashTree(acc accumulator.Accumulator, n *IntraNode) (int, error) {
	size := 0
	switch {
	case n.IsLeaf():
		n.Hash = leafPreHash(n.Obj.Hash())
	case n.Left == nil || n.Right == nil:
		return 0, fmt.Errorf("internal index node without two children")
	default:
		l, err := hashTree(acc, n.Left)
		if err != nil {
			return 0, err
		}
		r, err := hashTree(acc, n.Right)
		if err != nil {
			return 0, err
		}
		size = l + r
		n.Hash = internalPreHash(n.Left.Hash, n.Right.Hash)
	}
	if n.HasDigest {
		ab := acc.AccBytes(n.Digest)
		n.Hash = nodeHash(n.Hash, ab)
		size += len(ab)
	}
	return size + len(n.Hash), nil
}

// Builder constructs block ADSs for the miner.
type Builder struct {
	// Acc is the accumulator construction shared by the whole system.
	Acc accumulator.Accumulator
	// Mode selects the indexes to build.
	Mode IndexMode
	// SkipSize is the skip-list size ℓ (ModeBoth only).
	SkipSize int
	// Width is the numeric bit width for the prefix transform.
	Width int
	// NoCluster disables the Jaccard similarity clustering of Alg. 2
	// and pairs leaves positionally instead. The index remains correct
	// but prunes worse; this exists for the ablation benchmark that
	// quantifies what the clustering heuristic buys.
	NoCluster bool
}

// ChainView gives the builder read access to previously built blocks,
// which the skip list aggregates over.
type ChainView interface {
	// ADSAt returns the ADS of the block at the height, paging it in
	// from storage if the view is backed by a bounded cache. A height
	// with no block returns (nil, nil); a non-nil error is a page-in
	// failure (IO, corruption, failed commitment re-verification) that
	// callers must propagate — on a sharded node it feeds the shard's
	// circuit breaker like any other storage fault.
	ADSAt(height int) (*BlockADS, error)
	// HeaderAt returns the header at the height.
	HeaderAt(height int) (chain.Header, error)
}

// BuildBlock constructs the ADS for a new block at the given height
// from its objects. view supplies prior blocks for skip aggregation
// (ignored unless ModeBoth).
func (b *Builder) BuildBlock(height int, objs []chain.Object, view ChainView) (*BlockADS, error) {
	if len(objs) == 0 {
		return nil, fmt.Errorf("core: cannot build ADS for an empty block")
	}
	width := b.Width
	if width <= 0 {
		width = DefaultBitWidth
	}

	// Leaves: one per object, with acc(W') for W' = trans(V) + W, all
	// digests in one SetupEach.
	leaves := make([]*IntraNode, len(objs))
	ws := make([]multiset.Multiset, len(objs))
	for i := range objs {
		o := objs[i].Clone()
		ws[i] = ObjectMultiset(o, width)
		leaves[i] = &IntraNode{HasDigest: true, Obj: &o}
	}
	digs, err := accumulator.SetupEach(b.Acc, ws)
	if err != nil {
		return nil, fmt.Errorf("core: leaf digests: %w", err)
	}
	for i, l := range leaves {
		l.Digest = digs[i]
	}

	indexed := b.Mode != ModeNil
	root, blockW, err := b.buildTree(leaves, ws, indexed, indexed && !b.NoCluster)
	if err != nil {
		return nil, err
	}
	ads := &BlockADS{
		Height: height,
		Root:   root,
		Width:  width,
		blockW: multiset.Pack(blockW),
	}

	if b.Mode == ModeBoth {
		if err := b.buildSkips(ads, view); err != nil {
			return nil, err
		}
	}
	if err := ads.hash(b.Acc); err != nil {
		return nil, err
	}
	return ads, nil
}

// buildTree implements Algorithm 2: greedy bottom-up pairing. At every
// level the unpaired node with the largest attribute multiset picks the
// partner maximizing Jaccard similarity; pairs become parents of the
// next level. In non-indexed mode the pairing is positional and
// internal nodes carry no attribute data. ws are the leaves'
// multisets. Every build forms each parent's union for the clustering,
// then drops it: no node keeps its multiset. The clustering reads only
// multisets, so a level's pairs are picked first; when indexed, one
// accumulator.UnionEach then computes all of that level's parent
// digests from their children's digests and multisets: for acc2 that
// costs the children's intersections (mean 5.3 elements against 50 in
// the union on the benchmark's chains), while acc1, whose digest has no
// union identity, runs Setup over each union. It returns the root and
// the root's union, the block's multiset; BuildBlock derives the node
// hashes afterwards.
func (b *Builder) buildTree(leaves []*IntraNode, ws []multiset.Multiset, indexed, cluster bool) (*IntraNode, multiset.Multiset, error) {
	type item struct {
		n *IntraNode
		w multiset.Multiset
	}
	nodes := make([]item, len(leaves))
	for i, l := range leaves {
		nodes[i] = item{n: l, w: ws[i]}
	}
	for len(nodes) > 1 {
		var pairs [][2]item
		remaining := make([]item, len(nodes))
		copy(remaining, nodes)
		for len(remaining) > 1 {
			li := 0
			if cluster {
				// argmax |W|
				for i, it := range remaining {
					if it.w.Len() > remaining[li].w.Len() {
						li = i
					}
				}
			}
			nl := remaining[li]
			remaining = append(remaining[:li], remaining[li+1:]...)

			ri := 0
			if cluster {
				best := -1.0
				for i, it := range remaining {
					if j := multiset.Jaccard(nl.w, it.w); j > best {
						ri, best = i, j
					}
				}
			}
			nr := remaining[ri]
			remaining = append(remaining[:ri], remaining[ri+1:]...)
			pairs = append(pairs, [2]item{nl, nr})
		}

		var digs []accumulator.Acc
		if indexed {
			ps := make([]accumulator.Pair, len(pairs))
			for i, p := range pairs {
				ps[i] = accumulator.Pair{X1: p[0].w, X2: p[1].w, Acc1: p[0].n.Digest, Acc2: p[1].n.Digest}
			}
			var err error
			if digs, err = accumulator.UnionEach(b.Acc, ps); err != nil {
				return nil, nil, fmt.Errorf("core: internal digests: %w", err)
			}
		}
		next := make([]item, len(pairs), len(pairs)+len(remaining))
		for i, p := range pairs {
			n := &IntraNode{Left: p[0].n, Right: p[1].n}
			if indexed {
				n.Digest, n.HasDigest = digs[i], true
			}
			next[i] = item{n: n, w: multiset.Union(p[0].w, p[1].w)}
		}
		// A leftover odd node is carried to the next level unchanged.
		nodes = append(next, remaining...)
	}
	return nodes[0].n, nodes[0].w, nil
}

// skipSpans derives the multisets the skip entries 0..top of a
// aggregate: spans[i] is the sum of BlockW over the blocks
// [Height−Distance_i+1, Height] that entry i covers. It reads the
// covered blocks through view, in one pass for all levels since each
// span contains the smaller ones, merging each block into the running
// sum through two reused buffers. A non-nil more sees every span in
// order and ends the pass early: after the first span it rejects,
// skipSpans returns the spans derived so far, that one included. A
// page-in failure is ErrADSUnavailable, like any other page-in of a
// window walk.
func (a *BlockADS) skipSpans(view ChainView, top int, more func(w multiset.Multiset) bool) ([]multiset.Multiset, error) {
	spans := make([]multiset.Multiset, 0, top+1)
	var bufs [2]multiset.Multiset
	var w multiset.Multiset // the covered block's BlockW
	sum := a.BlockW()
	h := a.Height - 1
	for i := 0; i <= top; i++ {
		for ; h > a.Height-a.Skips[i].Distance; h-- {
			prev, err := view.ADSAt(h)
			if err != nil {
				return nil, fmt.Errorf("core: skip span at height %d: %w: %w", h, ErrADSUnavailable, err)
			}
			if prev == nil {
				return nil, fmt.Errorf("core: skip span: no ADS at height %d", h)
			}
			k := h & 1 // the buffer sum is not in
			w = prev.blockW.AppendTo(w[:0])
			bufs[k] = multiset.AppendSum(bufs[k][:0], sum, w)
			sum = bufs[k]
		}
		spans = append(spans, slices.Clone(sum))
		if (more != nil && !more(spans[i])) || i == top {
			break
		}
	}
	return spans, nil
}

// buildSkips constructs the skip entries for ads.Height. A distance-d
// entry exists when its landing block h−d exists (h−d ≥ 0; the
// exact-genesis landing d = h+1 has no use and is skipped). It runs in
// ModeBoth only, where every block's Root.Digest is acc(BlockW).
func (b *Builder) buildSkips(ads *BlockADS, view ChainView) error {
	dists := SkipDistances(b.SkipSize)
	n := 0
	for n < len(dists) && dists[n] <= ads.Height {
		n++
	}
	if n == 0 {
		return nil
	}
	ads.Skips = make([]SkipEntry, 0, n) // sized once: a node keeps every block's
	for _, d := range dists[:n] {
		land := ads.Height - d
		hdr, err := view.HeaderAt(land)
		if err != nil {
			return fmt.Errorf("core: skip landing header %d: %w", land, err)
		}
		ads.Skips = append(ads.Skips, SkipEntry{Distance: d, PrevHash: hdr.Hash()})
	}
	digs, err := b.skipDigests(ads, view)
	if err != nil {
		return fmt.Errorf("core: skip digests: %w", err)
	}
	for i := range ads.Skips {
		ads.Skips[i].Digest = digs[i]
	}
	return nil
}

// skipDigests returns the digests of ads's skip entries, whose
// distances are set. acc2 sums digests that exist, the reuse the paper
// credits for acc2's faster "both" construction (§9.1): the distance-d
// entry at h = ads.Height covers [h−d+1, h], which is the four blocks
// h−3..h and, for each k = 4, 8, …, d/2, the distance-k entry of block
// h−k. Every entry is thus a sum of digests that exist before this
// block's entries do, and one accumulator.SumEach computes them all.
// acc1 has no Sum, so it runs Setup over each entry's span, the sum of
// the covered blocks' BlockW (skipSpans). A missing covered block or
// entry is an error: a chain this builder built has all of them.
func (b *Builder) skipDigests(ads *BlockADS, view ChainView) ([]accumulator.Acc, error) {
	if !b.Acc.SupportsAgg() {
		spans, err := ads.skipSpans(view, len(ads.Skips)-1, nil)
		if err != nil {
			return nil, err
		}
		return accumulator.SetupEach(b.Acc, spans)
	}
	h := ads.Height
	prior := func(j int) (*BlockADS, error) {
		prev, err := view.ADSAt(j)
		if err == nil && prev == nil {
			err = fmt.Errorf("no ADS at height %d", j)
		}
		return prev, err
	}
	parts := []accumulator.Acc{ads.Root.Digest}
	for j := h - 1; j > h-4; j-- {
		prev, err := prior(j)
		if err != nil {
			return nil, err
		}
		parts = append(parts, prev.Root.Digest)
	}
	groups := make([][]accumulator.Acc, len(ads.Skips))
	for i := range ads.Skips {
		if i > 0 {
			k := ads.Skips[i-1].Distance
			prev, err := prior(h - k)
			if err != nil {
				return nil, err
			}
			at := slices.IndexFunc(prev.Skips, func(s SkipEntry) bool { return s.Distance == k })
			if at < 0 {
				return nil, fmt.Errorf("no distance-%d entry at height %d", k, h-k)
			}
			parts = append(parts, prev.Skips[at].Digest)
		}
		groups[i] = parts[:len(parts):len(parts)]
	}
	return accumulator.SumEach(b.Acc, groups)
}
