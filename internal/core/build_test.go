package core

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
)

// TestBuiltDigestsMatchSetup checks the batched build against per-item
// Setup: every leaf and parent digest of every block equals
// Acc.Setup of the node's multiset, for acc1 and acc2, with and
// without skips, on blocks whose multiplicities exceed 1 in places.
func TestBuiltDigestsMatchSetup(t *testing.T) {
	for accName, acc := range testAccs(t) {
		for _, mode := range []IndexMode{ModeIntra, ModeBoth} {
			t.Run(fmt.Sprintf("%s/%s", accName, mode), func(t *testing.T) {
				b := &Builder{Acc: acc, Mode: mode, SkipSize: 2, Width: testWidth}
				node := NewFullNode(0, b)
				mineSkipChain(t, node, 10)
				for h := 0; h < 10; h++ {
					ads, err := node.ADSAt(h)
					if err != nil {
						t.Fatal(err)
					}
					var walk func(n *IntraNode)
					walk = func(n *IntraNode) {
						if n == nil {
							return
						}
						want, err := acc.Setup(n.Multiset(testWidth))
						if err != nil {
							t.Fatal(err)
						}
						if !n.HasDigest || !acc.AccEqual(n.Digest, want) {
							t.Fatalf("block %d: node digest != Setup of its multiset %v", h, n.Multiset(testWidth))
						}
						walk(n.Left)
						walk(n.Right)
					}
					walk(ads.Root)
				}
			})
		}
	}
}

// TestADSBytesCounted pins SetupStats.ADSBytes, which Table 1 and the
// ADS-size figure read: the size the builder counts equals the size
// VerifyADSCommitments counts on the block's decoded record, block by
// block, in every mode, and every total is the one this chain had when
// the size was walked after each commit.
func TestADSBytesCounted(t *testing.T) {
	for accName, acc := range testAccs(t) {
		for _, mode := range []IndexMode{ModeNil, ModeIntra, ModeBoth} {
			t.Run(fmt.Sprintf("%s/%s", accName, mode), func(t *testing.T) {
				b := &Builder{Acc: acc, Mode: mode, SkipSize: 2, Width: testWidth}
				node := NewFullNode(0, b)
				mineSkipChain(t, node, 12)
				total := 0
				for h := 0; h < 12; h++ {
					ads, err := node.ADSAt(h)
					if err != nil {
						t.Fatal(err)
					}
					blk, err := node.Store.BlockAt(h)
					if err != nil {
						t.Fatal(err)
					}
					rec, err := EncodeChainRecord(blk, ads)
					if err != nil {
						t.Fatal(err)
					}
					dec, err := DecodeChainRecordADS(rec)
					if err != nil {
						t.Fatal(err)
					}
					if err := VerifyADSCommitments(b, blk.Header, h, dec); err != nil {
						t.Fatal(err)
					}
					if got, want := ads.SizeBytes(acc), dec.SizeBytes(acc); got != want {
						t.Fatalf("block %d: built %d bytes, verified decode %d", h, got, want)
					}
					total += dec.SizeBytes(acc)
				}
				if node.SetupStats.ADSBytes != total {
					t.Fatalf("SetupStats.ADSBytes = %d, blocks walk to %d", node.SetupStats.ADSBytes, total)
				}
				if want := wantADSBytes[accName+"/"+mode.String()]; total != want {
					t.Fatalf("%d ADS bytes, want %d", total, want)
				}
			})
		}
	}
}

// wantADSBytes is TestADSBytesCounted's 12-block total per
// construction and mode.
var wantADSBytes = map[string]int{
	"acc1/nil": 4272, "acc1/intra": 5460, "acc1/both": 6336,
	"acc2/nil": 5856, "acc2/intra": 8232, "acc2/both": 9504,
}

// benchBlock is one benchmark-shaped block: eight objects, each with
// two numeric dimensions of width 8 and two keywords from a vocabulary
// of 64.
func benchBlock(rng *rand.Rand, h int) []chain.Object {
	objs := make([]chain.Object, 8)
	for j := range objs {
		objs[j] = chain.Object{
			ID: chain.ObjectID(h*8 + j + 1),
			TS: int64(h),
			V:  []int64{rng.Int63n(256), rng.Int63n(256)},
			W:  []string{fmt.Sprintf("kw%02d", rng.Intn(64)), fmt.Sprintf("kw%02d", rng.Intn(64))},
		}
	}
	return objs
}

// BenchmarkBuildBlock measures one block's ADS build, leaves, tree and
// skips, at the default preset on benchmark-shaped blocks (eight
// objects, two dimensions of width 8, two keywords, skip size 3) over
// a warm 32-block chain, so that every skip entry up to distance 16
// exists.
func BenchmarkBuildBlock(b *testing.B) {
	const width, blocks = 8, 32
	q := 2*(1<<(width+1)) + 64 + 64
	acc := accumulator.KeyGenCon2Deterministic(pairing.Default(), q, accumulator.NewDictEncoder(q), []byte("build"))
	builder := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 3, Width: width}
	node := NewFullNode(0, builder)
	rng := rand.New(rand.NewSource(42))
	for h := 0; h < blocks; h++ {
		if _, err := node.MineBlock(benchBlock(rng, h), int64(h)); err != nil {
			b.Fatal(err)
		}
	}
	objs := benchBlock(rng, blocks)
	for b.Loop() {
		if _, err := builder.BuildBlock(blocks, objs, node); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResidentBlock reports the heap a node keeps per mined block,
// B/block: the growth of the live heap after GC from block 200 to
// block 800 of BenchmarkBuildBlock's chain, so the key, the encoder's
// dictionary and the node's fixed cost drop out. The resident node
// keeps every block's decoded ADS; the paged node mines onto a block
// log and keeps at most 16 of them.
func BenchmarkResidentBlock(b *testing.B) {
	const width, from, to = 8, 200, 800
	q := 2*(1<<(width+1)) + 64 + 64
	acc := accumulator.KeyGenCon2Deterministic(pairing.Default(), q, accumulator.NewDictEncoder(q), []byte("build"))
	builder := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 3, Width: width}
	for _, tc := range []struct {
		name string
		open func(b *testing.B) *FullNode
	}{
		{"resident", func(*testing.B) *FullNode { return NewFullNode(0, builder) }},
		{"paged", func(b *testing.B) *FullNode {
			node, err := openLogNode(builder, b.TempDir(), WithADSCache(16))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { node.Close() })
			return node
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var perBlock float64
			for b.Loop() {
				node := tc.open(b)
				rng := rand.New(rand.NewSource(42))
				var base uint64
				for h := range to {
					if h == from {
						base = liveHeap()
					}
					if _, err := node.MineBlock(benchBlock(rng, h), int64(h)); err != nil {
						b.Fatal(err)
					}
				}
				perBlock = float64(int64(liveHeap()-base)) / (to - from)
				runtime.KeepAlive(node)
			}
			b.ReportMetric(perBlock, "B/block")
		})
	}
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// encodeCounter counts AccBytes calls per encoding.
type encodeCounter struct {
	accumulator.Accumulator
	mu    sync.Mutex
	calls map[string]int
}

func (c *encodeCounter) AccBytes(a accumulator.Acc) []byte {
	enc := c.Accumulator.AccBytes(a)
	c.mu.Lock()
	c.calls[string(enc)]++
	c.mu.Unlock()
	return enc
}

// TestMineEncodesEachDigestOnce: mining a block hashes its ADS once.
// The commit does not re-derive what MineBlock built, so every
// intra-index digest is encoded exactly once, and nothing else is.
func TestMineEncodesEachDigestOnce(t *testing.T) {
	acc := &encodeCounter{Accumulator: testAccs(t)["acc2"], calls: map[string]int{}}
	node := NewFullNode(0, &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth})
	if _, err := node.MineBlock(carObjects(0), 1000); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	var walk func(n *IntraNode)
	walk = func(n *IntraNode) {
		if n == nil {
			return
		}
		if n.HasDigest {
			want[string(acc.Accumulator.AccBytes(n.Digest))]++
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(mustADS(t, node, 0).Root)
	if len(want) == 0 {
		t.Fatal("the block's index holds no digest")
	}
	if !maps.Equal(acc.calls, want) {
		t.Fatalf("AccBytes calls per digest %v, want one per index node %v", slices.Collect(maps.Values(acc.calls)), slices.Collect(maps.Values(want)))
	}
}
