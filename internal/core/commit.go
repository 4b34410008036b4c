package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/storage"
)

// recMagic prefixes a chain record. Version 5 stores field elements as
// their Montgomery limbs (ff.Elt's gob form), skip entries without
// their multisets, no intra-index node's multiset (a leaf derives its
// W' from its object at the ADS's Width), and the block's BlockW.
var recMagic = []byte{0x00, 'V', 'C', 'R', '5'}

// oldRecMagics prefix records of the formats before VCR5: VCR2, whose
// field elements gob-encode canonical integers, VCR3, which also
// stored every internal intra-index node's multiset, and VCR4, which
// stored every leaf's. All are refused outright; builds that predate
// VCR5 refuse its records as malformed.
var oldRecMagics = [][]byte{{0x00, 'V', 'C', 'R', '2'}, {0x00, 'V', 'C', 'R', '3'}, {0x00, 'V', 'C', 'R', '4'}}

// ErrOldRecordFormat marks a store written in record format VCR2, VCR3
// or VCR4 by an older build. It cannot be read; re-mine the chain into
// a new store.
var ErrOldRecordFormat = errors.New("core: chain record in format VCR2, VCR3 or VCR4, which this build cannot read; re-mine the chain into a new store")

// EncodeChainRecord renders a (block, ADS) pair as one self-contained
// record: magic, a length-prefixed block gob, then the ADS gob. The two
// halves are independently decodable, which is what makes reopen lazy —
// an index-only open decodes just the block sections, and the paged ADS
// source decodes just the ADS section on a cache miss. Every slot of
// every node persists this one format.
func EncodeChainRecord(blk *chain.Block, ads *BlockADS) ([]byte, error) {
	var blkBuf bytes.Buffer
	if err := gob.NewEncoder(&blkBuf).Encode(blk); err != nil {
		return nil, fmt.Errorf("core: encoding chain record block: %w", err)
	}
	var buf bytes.Buffer
	buf.Write(recMagic)
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(blkBuf.Len()))
	buf.Write(lenb[:])
	buf.Write(blkBuf.Bytes())
	if err := gob.NewEncoder(&buf).Encode(ads); err != nil {
		return nil, fmt.Errorf("core: encoding chain record ADS: %w", err)
	}
	return buf.Bytes(), nil
}

// splitRecord returns the block and ADS sections of a record.
func splitRecord(data []byte) (blkGob, adsGob []byte, err error) {
	for _, old := range oldRecMagics {
		if bytes.HasPrefix(data, old) {
			return nil, nil, ErrOldRecordFormat
		}
	}
	if len(data) < len(recMagic)+4 || !bytes.HasPrefix(data, recMagic) {
		return nil, nil, fmt.Errorf("core: malformed chain record")
	}
	n := int(binary.BigEndian.Uint32(data[len(recMagic):]))
	body := data[len(recMagic)+4:]
	if n <= 0 || n >= len(body) {
		return nil, nil, fmt.Errorf("core: malformed chain record")
	}
	return body[:n], body[n:], nil
}

// decodeRecordBlock decodes only the block half of a record: the
// index-only reopen path, which skips the (much larger) ADS body.
func decodeRecordBlock(data []byte) (*chain.Block, error) {
	blkGob, _, err := splitRecord(data)
	if err != nil {
		return nil, err
	}
	var blk chain.Block
	if err := gob.NewDecoder(bytes.NewReader(blkGob)).Decode(&blk); err != nil {
		return nil, fmt.Errorf("core: decoding chain record block: %w", err)
	}
	return &blk, nil
}

// DecodeChainRecordADS decodes only the ADS half of a record: the
// page-in path, which already has the block in the chain store.
func DecodeChainRecordADS(data []byte) (*BlockADS, error) {
	_, adsGob, err := splitRecord(data)
	if err != nil {
		return nil, err
	}
	var ads BlockADS
	if err := gob.NewDecoder(bytes.NewReader(adsGob)).Decode(&ads); err != nil {
		return nil, fmt.Errorf("core: decoding chain record ADS: %w", err)
	}
	return &ads, nil
}

// VerifyADSCommitments checks a decoded ADS against an
// already-validated header: presence, height alignment, and the two
// root commitments. The intra-index root is rebuilt bottom-up from the
// leaves' objects and the stored digests, and every stored node hash
// must equal its rebuilt one. It is the half of commit validation a
// lazy reopen defers — the paged sources run it at page-in, so a
// tampered stored ADS surfaces exactly as it would have at an eager
// open. BlockW and Width are not re-checked: the header does not commit
// them, and a wrong one only makes the SP send proofs that clients
// reject.
func VerifyADSCommitments(b *Builder, hdr chain.Header, height int, ads *BlockADS) error {
	if ads == nil || ads.Root == nil {
		return fmt.Errorf("core: block %d missing ADS", height)
	}
	if ads.Height != height {
		return fmt.Errorf("core: ADS height %d does not match block %d", ads.Height, height)
	}
	if err := b.rehash(ads.Root); err != nil {
		return fmt.Errorf("core: block %d ADS: %w", height, err)
	}
	if ads.MerkleRoot() != hdr.MerkleRoot {
		return fmt.Errorf("core: block %d ADS root does not match header", height)
	}
	if got := ads.SkipListRoot(b.Acc); got != hdr.SkipListRoot {
		return fmt.Errorf("core: block %d skip root does not match header", height)
	}
	return nil
}

// rehash recomputes n's hash from its subtree — a leaf's object, the
// children's recomputed hashes, and the stored digests — and fails if
// the stored Hash of n or of any node below differs from it.
func (b *Builder) rehash(n *IntraNode) error {
	var pre chain.Digest
	switch {
	case n.IsLeaf():
		pre = leafPreHash(n.Obj.Hash())
	case n.Left == nil || n.Right == nil:
		return fmt.Errorf("internal index node without two children")
	default:
		if err := b.rehash(n.Left); err != nil {
			return err
		}
		if err := b.rehash(n.Right); err != nil {
			return err
		}
		pre = internalPreHash(n.Left.Hash, n.Right.Hash)
	}
	h := pre
	if n.HasDigest {
		h = nodeHash(pre, b.Acc.AccBytes(n.Digest))
	}
	if h != n.Hash {
		return fmt.Errorf("index node hash does not match its contents")
	}
	return nil
}

// validateCommit checks that (blk, ads) is a valid chain entry at the
// given height of the store: height alignment, ADS/header commitment
// match, and every chain-level rule (linkage, timestamps,
// proof-of-work). It mutates nothing. The commit pipeline runs it
// before a byte reaches any backend, so a record can never be durably
// persisted and then rejected.
func validateCommit(b *Builder, against *chain.Store, height int, blk *chain.Block, ads *BlockADS) error {
	if blk == nil {
		return fmt.Errorf("core: commit of a nil block")
	}
	if int(blk.Header.Height) != height {
		return fmt.Errorf("core: commit height %d, want %d", blk.Header.Height, height)
	}
	if err := VerifyADSCommitments(b, blk.Header, height, ads); err != nil {
		return err
	}
	return against.Validate(blk)
}

// commitLocked is the single choke point through which every mined
// (block, ADS) pair enters the node, whatever the slot count. It
// validates, asks the guard whether the owning slot admits work,
// persists to the slot's backend (nothing for an ephemeral one — no
// point encoding a record the backend would discard), publishes the
// ADS to the slot's source, and only then appends the block — readers
// gate on the store height, so no one can ever observe the chain
// advanced to h+1 without the ADS at h reachable (cached for a resident
// source, durable and pageable for a paged one). The caller holds n.mu,
// which serializes writers; readers never take it.
func (n *FullNode) commitLocked(blk *chain.Block, ads *BlockADS) error {
	height := n.Store.Height()
	if err := validateCommit(n.Builder, n.Store, height, blk, ads); err != nil {
		return err
	}
	i := n.Owner(height)
	s := n.slots[i].Load()
	// Circuit breaker: a slot the guard refuses sheds load instead of
	// hammering a sick backend. Heights are sequential, so mining
	// stalls (fail-fast, no state touched) until the slot is restored.
	if n.Guard != nil {
		if err := n.Guard.Admit(i); err != nil {
			return fmt.Errorf("core: committing block %d: %w", height, err)
		}
	}
	_, ephemeral := s.backend.(storage.Ephemeral)
	before := s.backend.Len()
	if !ephemeral {
		data, err := EncodeChainRecord(blk, ads)
		if err != nil {
			return err
		}
		err = s.backend.Append(data)
		if n.Guard != nil {
			n.Guard.Report(i, err)
		}
		if err != nil {
			return fmt.Errorf("core: persisting block %d: %w", height, err)
		}
	}
	// Source first, block second: readers gate on the store height
	// without taking n.mu, so the ADS must be reachable before the
	// height advances.
	s.ads.Add(height, ads)
	if err := n.Store.Append(blk); err != nil {
		// Unreachable after validateCommit (n.mu serializes all
		// writers), but if it ever fires the durable record and the
		// cached ADS must not outlive the rejected in-RAM append.
		s.ads.InvalidateFrom(height)
		if !ephemeral {
			if terr := s.backend.Truncate(before); terr != nil {
				return fmt.Errorf("core: store/backend divergence at block %d: %v (rollback: %v)",
					height, err, terr)
			}
		}
		return err
	}
	return nil
}
