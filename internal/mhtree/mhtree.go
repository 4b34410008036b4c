// Package mhtree implements Merkle hash trees for one user: the
// evaluation's Fig. 16, which compares vChain's accumulator ADS with the
// traditional MHT approach. That approach needs one tree per attribute
// combination to answer arbitrary-attribute queries; MultiAttrMHT
// reproduces that exponential baseline. The chain substrate does not
// use this package: a block's MerkleRoot commits its intra-block index
// (internal/core).
package mhtree

import (
	"crypto/sha256"
	"sort"
)

// HashSize is the digest width in bytes.
const HashSize = sha256.Size

// Digest is a SHA-256 output.
type Digest = [HashSize]byte

// hashLeaf and hashNode domain-separate leaf and internal hashes so a
// forged tree cannot re-interpret an internal node as a leaf.
func hashLeaf(data []byte) Digest {
	return sha256.Sum256(append([]byte{0x00}, data...))
}

func hashNode(l, r Digest) Digest {
	buf := make([]byte, 1, 1+2*HashSize)
	buf[0] = 0x01
	buf = append(buf, l[:]...)
	buf = append(buf, r[:]...)
	return sha256.Sum256(buf)
}

// Tree is an immutable Merkle tree over a list of leaf payloads.
type Tree struct {
	// levels[0] is the leaf level; levels[len-1] is the single root.
	levels [][]Digest
}

// Build constructs a tree over the given leaf payloads. An empty input
// yields a deterministic sentinel root (hash of the empty leaf).
func Build(leaves [][]byte) *Tree {
	if len(leaves) == 0 {
		return &Tree{levels: [][]Digest{{hashLeaf(nil)}}}
	}
	level := make([]Digest, len(leaves))
	for i, l := range leaves {
		level[i] = hashLeaf(l)
	}
	t := &Tree{}
	t.levels = append(t.levels, level)
	for len(level) > 1 {
		next := make([]Digest, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, hashNode(level[i], level[i+1]))
			} else {
				// Odd node promotes unchanged (Bitcoin-style duplication
				// invites CVE-2012-2459-like ambiguity; promotion does not).
				next = append(next, level[i])
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t
}

// MultiAttrMHT models the traditional-MHT baseline of Fig. 16: to
// support range queries over any subset of d numeric attributes, one
// sorted Merkle tree must be built per non-empty attribute combination
// — 2^d − 1 trees in total. The struct records enough to measure
// construction time and total ADS size; the point of the experiment is
// that this blows up exponentially while the accumulator ADS stays
// constant-size.
type MultiAttrMHT struct {
	// Dim is the number of numeric attributes d.
	Dim int
	// Trees holds one tree per attribute combination, keyed by bitmask.
	Trees map[uint]*Tree
}

// BuildMultiAttr builds all 2^d−1 combination trees over rows of
// d-dimensional numeric data. Each combination's tree is built over the
// rows sorted by that attribute subset (lexicographically), which is
// what a range-queryable MHT requires.
func BuildMultiAttr(rows [][]int64) *MultiAttrMHT {
	if len(rows) == 0 {
		return &MultiAttrMHT{Dim: 0, Trees: map[uint]*Tree{}}
	}
	d := len(rows[0])
	m := &MultiAttrMHT{Dim: d, Trees: make(map[uint]*Tree)}
	for mask := uint(1); mask < 1<<uint(d); mask++ {
		order := make([]int, len(rows))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			ra, rb := rows[order[a]], rows[order[b]]
			for k := 0; k < d; k++ {
				if mask&(1<<uint(k)) == 0 {
					continue
				}
				if ra[k] != rb[k] {
					return ra[k] < rb[k]
				}
			}
			return false
		})
		leaves := make([][]byte, len(rows))
		for i, idx := range order {
			leaves[i] = encodeRow(rows[idx])
		}
		m.Trees[mask] = Build(leaves)
	}
	return m
}

// SizeBytes returns the total ADS size: every tree's internal digests.
func (m *MultiAttrMHT) SizeBytes() int {
	total := 0
	for _, t := range m.Trees {
		for _, lvl := range t.levels {
			total += len(lvl) * HashSize
		}
	}
	return total
}

func encodeRow(row []int64) []byte {
	out := make([]byte, 0, len(row)*8)
	for _, v := range row {
		u := uint64(v)
		for s := 56; s >= 0; s -= 8 {
			out = append(out, byte(u>>uint(s)))
		}
	}
	return out
}
