package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Header is the extended block header of vChain (Fig. 4 and §6): the
// classic fields (PreBkHash, TS, ConsProof) plus the ADS commitments —
// MerkleRoot commits the intra-block index (which itself embeds the
// per-object AttDigests) and SkipListRoot commits the inter-block
// index. A light node stores exactly these headers.
type Header struct {
	// Height is the block's position on the chain (genesis = 0).
	Height uint64
	// PrevHash is PreBkHash, the hash of the previous header.
	PrevHash Digest
	// TS is the block timestamp.
	TS int64
	// Nonce is ConsProof under proof-of-work.
	Nonce uint64
	// MerkleRoot commits the block's objects and their ADS (intra-block
	// index root, or the plain object MHT root when no index is used).
	MerkleRoot Digest
	// SkipListRoot commits the inter-block skip index; zero when the
	// block carries no inter-block index.
	SkipListRoot Digest
}

// HeaderSize is the length of every canonical header encoding (Bytes).
const HeaderSize = 8 + sha256.Size + 8 + 8 + 2*sha256.Size

// Bytes returns the canonical header encoding (the PoW preimage).
func (h Header) Bytes() []byte {
	buf := make([]byte, 0, HeaderSize)
	var tmp [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put(h.Height)
	buf = append(buf, h.PrevHash[:]...)
	put(uint64(h.TS))
	put(h.Nonce)
	buf = append(buf, h.MerkleRoot[:]...)
	buf = append(buf, h.SkipListRoot[:]...)
	return buf
}

// HeaderFromBytes decodes a canonical header encoding: exactly
// HeaderSize bytes, as Bytes writes them.
func HeaderFromBytes(b []byte) (Header, error) {
	var h Header
	if len(b) != HeaderSize {
		return h, fmt.Errorf("chain: header encoding is %d bytes, want %d", len(b), HeaderSize)
	}
	h.Height = binary.BigEndian.Uint64(b)
	b = b[8:]
	b = b[copy(h.PrevHash[:], b):]
	h.TS = int64(binary.BigEndian.Uint64(b))
	h.Nonce = binary.BigEndian.Uint64(b[8:])
	b = b[16:]
	b = b[copy(h.MerkleRoot[:], b):]
	copy(h.SkipListRoot[:], b)
	return h, nil
}

// Hash returns the header digest (the next block's PreBkHash).
func (h Header) Hash() Digest { return sha256.Sum256(h.Bytes()) }

// SizeBits returns the light-node storage cost of this header in bits,
// the metric Table 1's "block header size" row reports. Headers without
// a skip-list commitment are smaller.
func (h Header) SizeBits() int {
	bits := (8 + 8 + 8) * 8     // height, ts, nonce
	bits += 2 * sha256.Size * 8 // prev hash + merkle root
	if h.SkipListRoot != (Digest{}) {
		bits += sha256.Size * 8
	}
	return bits
}

// Block bundles a header with its object payload. The ADS body (index
// nodes, skip entries) lives in the core package; the chain layer only
// sees the roots.
type Block struct {
	Header  Header
	Objects []Object
}

// Difficulty expresses proof-of-work hardness as the number of leading
// zero bits required of the header hash. The reproduction default is
// small: consensus cost is not part of any vChain experiment, but the
// mechanism must exist for the system to be a blockchain.
type Difficulty uint8

// Meets reports whether d leading zero bits are present in digest.
func (d Difficulty) Meets(digest Digest) bool {
	bits := int(d)
	for _, b := range digest {
		if bits <= 0 {
			return true
		}
		switch {
		case bits >= 8:
			if b != 0 {
				return false
			}
			bits -= 8
		default:
			return b>>(8-uint(bits)) == 0
		}
	}
	return bits <= 0
}

// MaxPoWAttempts caps the nonce search so that a misconfigured
// difficulty fails loudly instead of hanging.
const MaxPoWAttempts = 1 << 28

// ErrPoWExhausted is returned when no nonce satisfies the difficulty
// within MaxPoWAttempts.
var ErrPoWExhausted = errors.New("chain: proof-of-work search exhausted")

// SolvePoW finds a nonce making the header hash meet the difficulty.
func SolvePoW(h Header, d Difficulty) (Header, error) {
	for n := uint64(0); n < MaxPoWAttempts; n++ {
		h.Nonce = n
		if d.Meets(h.Hash()) {
			return h, nil
		}
	}
	return Header{}, fmt.Errorf("%w at difficulty %d", ErrPoWExhausted, d)
}
