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
// which stores no hash, is usable only after it has passed. It is the
// half of commit validation a lazy reopen defers — the paged sources
// run it at page-in, so a tampered stored ADS surfaces exactly as it
// would have at an eager open. BlockW and Width are not re-checked:
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
