package core

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/vchain-go/vchain/internal/storage"
)

// openLogNode opens (or creates) the block log in dir and indexes
// it into a one-slot node: what a one-shard durable node is underneath.
func openLogNode(b *Builder, dir string, nopts ...NodeOption) (*FullNode, error) {
	log, err := storage.Open(dir, storage.Options{})
	if err != nil {
		return nil, err
	}
	node, err := NewFullNodeOn(0, b, log, nopts...)
	if err != nil {
		log.Close()
		return nil, err
	}
	return node, nil
}

// openTestNode is openLogNode with test cleanup.
func openTestNode(t *testing.T, b *Builder, dir string, nopts ...NodeOption) *FullNode {
	t.Helper()
	node, err := openLogNode(b, dir, nopts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return node
}

// Reopen, torn-tail recovery and concurrent mine/query run once for
// every slot count in internal/shard (TestReopenSurvivesRestart,
// TestReopenTornTail, TestConcurrentMineAndQuery).

func TestReplayRejectsChainInvalidRecord(t *testing.T) {
	// A record that passes CRC but fails chain validation (here: a
	// record order tampered at the storage layer) is a hard error, not
	// a silent truncation — CRC-clean corruption means tampering or a
	// bug, and recovery must not paper over it.
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeIntra, Width: testWidth}
	mem := storage.NewMemory()
	node, err := NewFullNodeOn(0, b, mem)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	rec0, _ := mem.Read(0)
	rec1, _ := mem.Read(1)
	swapped := storage.NewMemory()
	for _, rec := range [][]byte{rec1, rec0} {
		if err := swapped.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewFullNodeOn(0, b, swapped); err == nil {
		t.Fatal("reordered store accepted")
	}
}

// TestConcurrentMinersStayAligned drives two miners into the commit
// pipeline at once: the loser of each height race must fail cleanly,
// adss[i] must always correspond to block i, and a lost race must
// never land a record on a retaining backend.
func TestConcurrentMinersStayAligned(t *testing.T) {
	for name, be := range map[string]storage.Backend{"null": storage.NewNull(), "memory": storage.NewMemory()} {
		t.Run(name, func(t *testing.T) {
			acc := testAccs(t)["acc2"]
			b := &Builder{Acc: acc, Mode: ModeIntra, Width: testWidth}
			node, err := NewFullNodeOn(0, b, be)
			if err != nil {
				t.Fatal(err)
			}

			const perMiner = 4
			var wg sync.WaitGroup
			for m := 0; m < 2; m++ {
				wg.Add(1)
				go func(m int) {
					defer wg.Done()
					mined := 0
					for attempt := 0; mined < perMiner && attempt < 200; attempt++ {
						objs := carObjects(uint64(m*1000 + attempt*10))
						if _, err := node.MineBlock(objs, int64(1000+attempt)); err == nil {
							mined++
						}
					}
					if mined < perMiner {
						t.Errorf("miner %d finished only %d/%d blocks", m, mined, perMiner)
					}
				}(m)
			}
			wg.Wait()

			if node.Height() != 2*perMiner {
				t.Fatalf("height %d, want %d", node.Height(), 2*perMiner)
			}
			if _, ephemeral := be.(storage.Ephemeral); !ephemeral && be.Len() != node.Height() {
				t.Fatalf("backend holds %d records for height %d", be.Len(), node.Height())
			}
			for h := 0; h < node.Height(); h++ {
				hdr, err := node.HeaderAt(h)
				if err != nil {
					t.Fatal(err)
				}
				ads := mustADS(t, node, h)
				if ads.Height != h || ads.MerkleRoot() != hdr.MerkleRoot {
					t.Fatalf("ADS at %d does not correspond to its block (ads height %d)", h, ads.Height)
				}
			}
		})
	}
}

// TestRecordPlacement pins the record-index ↔ height bijection that
// banded replay, paged reads and slot restarts rely on.
func TestRecordPlacement(t *testing.T) {
	const slots, band, height = 3, 2, 20
	backends := make([]storage.Backend, slots)
	for i := range backends {
		backends[i] = storage.NewNull()
	}
	b := &Builder{Acc: testAccs(t)["acc2"], Mode: ModeIntra, Width: testWidth}
	node, _, err := NewBandedNode(0, b, band, backends)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	counts := make([]int, slots)
	for h := 0; h < height; h++ {
		o := node.Owner(h)
		r := counts[o]
		counts[o]++
		if got := node.recordHeight(o, r); got != h {
			t.Fatalf("recordHeight(%d, %d) = %d, want %d", o, r, got, h)
		}
		if got := node.heightRecord(h); got != r {
			t.Fatalf("heightRecord(%d) = %d, want %d", h, got, r)
		}
		// Partial chains: every slot's owned-record count below h+1.
		for s := 0; s < slots; s++ {
			if got := node.ownedRecords(s, h+1); got != counts[s] {
				t.Fatalf("ownedRecords(%d, %d) = %d, want %d", s, h+1, got, counts[s])
			}
		}
	}
}

// TestOpenRefusesRecordFormatV2 stores a record under the VCR2 magic:
// opening the store must fail with ErrOldRecordFormat, naming the
// format and the fix, instead of decoding wrong points.
func TestOpenRefusesRecordFormatV2(t *testing.T) { testOpenRefusesOldFormat(t, "VCR2") }

// TestOpenRefusesRecordFormatV3 does the same for the VCR3 magic,
// whose records also stored every internal node's multiset.
func TestOpenRefusesRecordFormatV3(t *testing.T) { testOpenRefusesOldFormat(t, "VCR3") }

// TestOpenRefusesRecordFormatV4 does the same for the VCR4 magic,
// whose records stored every leaf's multiset.
func TestOpenRefusesRecordFormatV4(t *testing.T) { testOpenRefusesOldFormat(t, "VCR4") }

// TestOpenRefusesRecordFormatV5 does the same for the VCR5 magic, the
// last gob format, whose records stored the objects twice and every
// node hash.
func TestOpenRefusesRecordFormatV5(t *testing.T) { testOpenRefusesOldFormat(t, "VCR5") }

// testOpenRefusesOldFormat mines one block, re-stamps its record with
// an old format's magic in a fresh log, and requires the open to fail
// with ErrOldRecordFormat naming that format and the fix.
func testOpenRefusesOldFormat(t *testing.T, format string) {
	b := &Builder{Acc: testAccs(t)["acc2"], Mode: ModeIntra, Width: testWidth}
	mem := storage.NewMemory()
	node, err := NewFullNodeOn(0, b, mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.MineBlock(carObjects(0), 1000); err != nil {
		t.Fatal(err)
	}
	rec, err := mem.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte("\x00"+format), rec[len(recMagic):]...)

	dir := t.TempDir()
	log, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(old); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = openLogNode(b, dir)
	if !errors.Is(err, ErrOldRecordFormat) {
		t.Fatalf("open of a %s store: %v, want ErrOldRecordFormat", format, err)
	}
	if msg := err.Error(); !strings.Contains(msg, format) || !strings.Contains(msg, "re-mine") {
		t.Fatalf("error %q does not name the old format and the fix", msg)
	}
}

// TestRecordFormatV6 checks what a fresh store writes: records under
// the VCR6 magic whose ADS section carries the block's width and
// BlockW, and leaves whose multisets the decoded ADS derives from their
// objects: every node's digest accumulates its derived multiset.
func TestRecordFormatV6(t *testing.T) {
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth}
	mem := storage.NewMemory()
	node, err := NewFullNodeOn(0, b, mem)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < mem.Len(); i++ {
		rec, err := mem.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(rec, []byte("\x00VCR6")) {
			t.Fatalf("record %d starts %q, want the VCR6 magic", i, rec[:5])
		}
		ads, err := DecodeChainRecordADS(rec)
		if err != nil {
			t.Fatal(err)
		}
		if ads.Width != testWidth {
			t.Fatalf("record %d: width %d, want %d", i, ads.Width, testWidth)
		}
		if !slices.Equal(ads.Root.Multiset(ads.Width), ads.BlockW()) {
			t.Fatalf("record %d: derived root multiset differs from BlockW", i)
		}
		var leaves func(n *IntraNode) int
		leaves = func(n *IntraNode) int {
			dig, err := acc.Setup(n.Multiset(ads.Width))
			if err != nil {
				t.Fatal(err)
			}
			if !acc.AccEqual(dig, n.Digest) {
				t.Fatalf("record %d: a node's digest does not accumulate its derived multiset", i)
			}
			if n.IsLeaf() {
				return 1
			}
			return leaves(n.Left) + leaves(n.Right)
		}
		if got := leaves(ads.Root); got != len(carObjects(0)) {
			t.Fatalf("record %d: %d leaves", i, got)
		}
	}
}
