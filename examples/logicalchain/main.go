// Logical chain construction (Appendix E of the vChain paper).
//
// The paper sketches a Solidity contract, BuildvChain, that maintains a
// vChain-style logical chain — block headers with intra- and
// inter-block index roots — on top of an existing blockchain. This
// example mirrors that construction in Go: a "contract" struct keeps a
// chainstorage map from block hash to logical block, building each
// header from the ADS roots exactly as Listing 1 does, while the
// underlying consensus chain stays untouched.
//
// Run with: go run ./examples/logicalchain
package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"log"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/proofs"
)

// logicalHeader mirrors the contract's BlockHeader struct.
type logicalHeader struct {
	PreBkHash    chain.Digest
	MerkleRoot   chain.Digest
	SkipListRoot chain.Digest
}

func (h logicalHeader) hash() chain.Digest {
	buf := append([]byte{}, h.PreBkHash[:]...)
	buf = append(buf, h.MerkleRoot[:]...)
	buf = append(buf, h.SkipListRoot[:]...)
	return sha256.Sum256(buf)
}

// logicalBlock mirrors the contract's Block struct.
type logicalBlock struct {
	header  logicalHeader
	ads     *core.BlockADS
	objects []chain.Object
}

// vChainContract mirrors Listing 1: chainstorage maps block hash →
// block; BuildvChain appends a logical block.
type vChainContract struct {
	acc          accumulator.Accumulator
	builder      *core.Builder
	chainstorage map[chain.Digest]*logicalBlock
	byHeight     []*logicalBlock // height index (the contract iterates storage)
}

// ADSAt / HeaderAt implement core.ChainView over the logical chain so
// the builder can aggregate skip entries. The contract keeps every ADS
// in its storage map, so lookups can never fail.
func (c *vChainContract) ADSAt(height int) (*core.BlockADS, error) {
	if height < 0 || height >= len(c.byHeight) {
		return nil, nil
	}
	return c.byHeight[height].ads, nil
}

func (c *vChainContract) HeaderAt(height int) (chain.Header, error) {
	if height < 0 || height >= len(c.byHeight) {
		return chain.Header{}, fmt.Errorf("no logical block at %d", height)
	}
	lb := c.byHeight[height]
	// Present the logical header in the substrate's header shape: only
	// the hash linkage matters to skip entries.
	return chain.Header{
		Height:       uint64(height),
		PrevHash:     lb.header.PreBkHash,
		MerkleRoot:   lb.header.MerkleRoot,
		SkipListRoot: lb.header.SkipListRoot,
	}, nil
}

// BuildvChain is Listing 1's function: build the indexes, assemble the
// header, store the block under its hash.
func (c *vChainContract) BuildvChain(objects []chain.Object, preBkHash chain.Digest) (chain.Digest, error) {
	height := len(c.byHeight)
	ads, err := c.builder.BuildBlock(height, objects, c)
	if err != nil {
		return chain.Digest{}, err
	}
	header := logicalHeader{
		PreBkHash:    preBkHash,
		MerkleRoot:   ads.MerkleRoot(),
		SkipListRoot: ads.SkipListRoot(c.acc),
	}
	blk := &logicalBlock{header: header, ads: ads, objects: objects}
	h := header.hash()
	c.chainstorage[h] = blk
	c.byHeight = append(c.byHeight, blk)
	return h, nil
}

func main() {
	pr := pairing.ByName("toy")
	acc := accumulator.KeyGenCon2Deterministic(pr, 1024, accumulator.HashEncoder{Q: 1024}, []byte("logicalchain"))
	contract := &vChainContract{
		acc:          acc,
		builder:      &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: 2, Width: 8},
		chainstorage: map[chain.Digest]*logicalBlock{},
	}

	prev := chain.Digest{} // genesis PreBkHash
	for i := 0; i < 6; i++ {
		objs := []chain.Object{
			{ID: chain.ObjectID(i*2 + 1), TS: int64(i), V: []int64{int64(10 * i)}, W: []string{"patent", "blockchain", "query"}},
			{ID: chain.ObjectID(i*2 + 2), TS: int64(i), V: []int64{int64(10*i + 5)}, W: []string{"patent", "storage"}},
		}
		h, err := contract.BuildvChain(objs, prev)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("logical block %d stored under %x (ADS %d bytes)\n",
			i, h[:8], contract.byHeight[i].ads.SizeBytes(acc))
		prev = h
	}

	// The logical chain supports the same verifiable queries: search
	// “blockchain” ∧ (“query” ∨ “search”) as in the paper's patent
	// example (§1), over the logical blocks.
	sp := &core.SP{Acc: acc, View: contract, Engine: proofs.New(acc, proofs.Options{})}
	vo, err := sp.TimeWindowQuery(context.Background(), core.Query{
		StartBlock: 0,
		EndBlock:   len(contract.byHeight) - 1,
		Bool:       core.CNF{core.KeywordClause("blockchain"), core.KeywordClause("query", "search")},
	})
	if err != nil {
		log.Fatal(err)
	}
	matches := len(vo.Results())
	fmt.Printf("patent search found %d matches across the logical chain\n", matches)
}
