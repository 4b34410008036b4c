package core

import (
	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
)

// NodeKind classifies an entry of the intra-block part of a VO.
type NodeKind int

const (
	// KindResult is a leaf whose object matches the query and is
	// returned in full.
	KindResult NodeKind = iota
	// KindMismatch is a (sub)tree proven disjoint from some query
	// clause; only its pre-hash, digest, and proof travel.
	KindMismatch
	// KindExpand is an internal node whose attribute multiset matches
	// the query, so both children are explored.
	KindExpand
)

// Cite is how a VO entry that needs a disjointness proof, a mismatch
// node or a skip, names that proof. In a batched VO (§6.3) it cites
// its clause's group by index alone: VO.Groups[Group] holds the clause
// and one proof aggregated over the digests of every entry citing it.
// Otherwise Group is −1 and the entry carries Clause and Proof inline,
// as acc1, unbatched walks and subscription publications do.
type Cite struct {
	Group  int                // index into VO.Groups, or −1 when inline
	Clause Clause             // the clause proven disjoint (inline only)
	Proof  *accumulator.Proof // its proof (inline only); nil until proven
}

// NodeVO mirrors one node of the SP's intra-block traversal (Alg. 3).
// The verifier replays the structure bottom-up to reconstruct the
// block's MerkleRoot.
type NodeVO struct {
	Kind NodeKind

	// Obj is the matching object (KindResult).
	Obj *chain.Object

	// Digest is the node's AttDigest. Present for KindResult and
	// KindMismatch always, and for KindExpand in indexed modes (it
	// participates in the node hash).
	Digest    accumulator.Acc
	HasDigest bool

	// PreHash is the digest-independent node hash part (KindMismatch
	// only): H(0x00‖objHash) for leaves, H(0x01‖l‖r) for subtrees.
	PreHash chain.Digest

	// Cite names the proof that the node's digest misses a clause
	// (KindMismatch only).
	Cite

	// Left and Right are the children (KindExpand).
	Left, Right *NodeVO
}

// SkipVO authenticates an inter-block jump (Alg. 4): all blocks
// [Height−Distance+1, Height] miss the clause its citation names.
type SkipVO struct {
	// Distance is the jump length.
	Distance int
	// Cite names the proof that the skip's digest misses a clause.
	Cite
	// Digest is the skip entry's AttDigest.
	Digest accumulator.Acc
	// PrevHash is the landing block's header hash.
	PrevHash chain.Digest
	// Siblings holds the other skip entries' leaf hashes (distance →
	// hash), letting the verifier recompute SkipListRoot.
	Siblings map[int]chain.Digest
}

// BlockVO covers one step of the backward traversal: either a skip
// (covering Distance blocks ending at Height) or one block's tree.
type BlockVO struct {
	// Height is the newest block this entry covers.
	Height int
	// Skip is set for an inter-block jump.
	Skip *SkipVO
	// Tree is set for a single-block traversal.
	Tree *NodeVO
}

// MismatchGroup is an online-batched disjointness proof (§6.3): one
// aggregated proof for every entry, mismatch node or skip, that cites
// it. The verifier sums the members' digests and runs a single
// VerifyDisjoint against Clause.
type MismatchGroup struct {
	Clause Clause
	Proof  accumulator.Proof
}

// VO is the complete verification object of a time-window query,
// ordered newest block first (the traversal order of Alg. 4).
type VO struct {
	Blocks []BlockVO
	// Groups holds the batched proofs, one per distinct clause cited
	// (§6.3, acc2 only).
	Groups []MismatchGroup
}

// Results extracts the matching objects (the result set R) in traversal
// order.
func (vo *VO) Results() []chain.Object {
	var out []chain.Object
	var walk func(n *NodeVO)
	walk = func(n *NodeVO) {
		if n == nil {
			return
		}
		if n.Kind == KindResult && n.Obj != nil {
			out = append(out, *n.Obj)
		}
		walk(n.Left)
		walk(n.Right)
	}
	for i := range vo.Blocks {
		walk(vo.Blocks[i].Tree)
	}
	return out
}

// SizeBytes reports the VO's transfer size: the exact length of the
// canonical wire encoding (EncodeVO) minus the result object payloads,
// which are the answer R itself rather than authentication overhead
// (matching the paper's VO-size metric). Deriving the size from the
// codec means every section — including the skip-VO entries, sibling
// frames, and per-node structural bytes that hand-rolled accounting
// used to ignore — is counted exactly once.
func (vo *VO) SizeBytes(acc accumulator.Accumulator) int {
	total := len(EncodeVO(acc, vo))
	for _, o := range vo.Results() {
		total -= encodedObjectSize(&o)
	}
	return total
}
