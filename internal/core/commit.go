package core

import (
	"fmt"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/storage"
)

// VerifyADSCommitments checks an ADS against an already-validated
// header: presence, height alignment, and the two root commitments. It
// derives every intra-index node's hash bottom-up from the leaves'
// objects and the digests, and sets the ADS's size, so a decoded ADS,
// which stores no hash, is usable only after it has passed. The slots'
// LRUs run it at page-in, where the bytes come from disk, so a
// tampered stored ADS surfaces exactly as it would have at an eager
// open; a freshly mined ADS needs no check, as MineBlock derives the
// header's roots from it. BlockW and Width are not re-checked:
// the header does not commit them, and a wrong one only makes the SP
// send proofs that clients reject.
func VerifyADSCommitments(b *Builder, hdr chain.Header, height int, ads *BlockADS) error {
	if ads == nil || ads.Root == nil {
		return fmt.Errorf("core: block %d missing ADS", height)
	}
	if ads.Height != height {
		return fmt.Errorf("core: ADS height %d does not match block %d", ads.Height, height)
	}
	if err := ads.hash(b.Acc); err != nil {
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

// commitLocked is the single choke point through which every mined
// (block, ADS) pair enters the node, whatever the slot count. The pair
// is MineBlock's own derivation, so it is not re-verified: the only
// thing a concurrent miner can have changed since is the tip, which is
// checked before any byte reaches a backend, and Store.Append below
// re-checks every chain rule. It then asks the guard whether the owning
// slot admits work, persists to the slot's backend (nothing for an
// ephemeral one — no point encoding a record the backend would
// discard), publishes the ADS to the slot's LRU, and only then appends
// the block — readers gate on the store height, so no one can ever
// observe the chain advanced to h+1 without the ADS at h reachable
// (cached, and for a durable backend also pageable). The caller holds
// n.mu, which serializes writers; readers never take it.
func (n *FullNode) commitLocked(blk *chain.Block, ads *BlockADS) error {
	height := n.Store.Height()
	if int(blk.Header.Height) != height {
		return fmt.Errorf("core: commit height %d, want %d", blk.Header.Height, height)
	}
	var tip chain.Digest
	if b := n.Store.Tip(); b != nil {
		tip = b.Header.Hash()
	}
	if blk.Header.PrevHash != tip {
		return fmt.Errorf("core: block %d was mined on another tip", height)
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
		// A block that breaks a chain rule: the durable record and the
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
