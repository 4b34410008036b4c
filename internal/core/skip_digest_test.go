package core

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/storage"
)

// skipObjects is block i of the long-skip chains: four objects whose
// values and keywords vary with i, so spans differ from one another,
// and whose keyword pair repeats one word in some blocks, so
// multiplicities above 1 occur.
func skipObjects(i int) []chain.Object {
	kw := []string{"sedan", "van", "suv", "benz", "bmw", "audi", "tesla"}
	objs := make([]chain.Object, 4)
	for j := range objs {
		objs[j] = chain.Object{
			ID: chain.ObjectID(i*10 + j + 1),
			TS: int64(i),
			V:  []int64{int64((i*5 + j*3) % 16)},
			W:  []string{kw[(i+j)%len(kw)], kw[(i*3+j+1)%len(kw)]},
		}
	}
	return objs
}

// mineSkipChain mines blocks skipObjects(0..blocks-1) onto node.
func mineSkipChain(t *testing.T, node *FullNode, blocks int) {
	t.Helper()
	for i := 0; i < blocks; i++ {
		if _, err := node.MineBlock(skipObjects(i), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSkipDigestsMatchSetupOfSpan is the oracle for the skip digests a
// node builds: at skip size 4 (distances 4–32) every entry's Digest is
// Acc.Setup of the span BlockADS.skipSpans derives. It runs on a
// resident node, on a paged node whose two-block ADS cache makes the
// builder page prior blocks back in, and on a two-slot node.
func TestSkipDigestsMatchSetupOfSpan(t *testing.T) {
	const blocks = 40
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 4, Width: testWidth}
	nodes := map[string]func(t *testing.T) *FullNode{
		"resident": func(t *testing.T) *FullNode { return NewFullNode(0, b) },
		"paged": func(t *testing.T) *FullNode {
			return openTestNode(t, b, t.TempDir(), WithADSCache(2))
		},
		"two-slot": func(t *testing.T) *FullNode {
			node, _, err := NewBandedNode(0, b, 2, []storage.Backend{storage.NewNull(), storage.NewNull()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { node.Close() })
			return node
		},
	}
	for name, open := range nodes {
		t.Run(name, func(t *testing.T) {
			node := open(t)
			mineSkipChain(t, node, blocks)
			if name == "paged" && node.ADSStats().Decodes == 0 {
				t.Fatal("the paged node never paged a block back in")
			}
			top := 0
			for h := 0; h < blocks; h++ {
				ads := mustADS(t, node, h)
				if len(ads.Skips) == 0 {
					continue
				}
				spans, err := ads.skipSpans(node, len(ads.Skips)-1, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i, s := range ads.Skips {
					want, err := acc.Setup(spans[i])
					if err != nil {
						t.Fatal(err)
					}
					if !acc.AccEqual(s.Digest, want) {
						t.Fatalf("height %d: distance-%d digest != Setup of its span", h, s.Distance)
					}
					top = max(top, s.Distance)
				}
			}
			if top != 32 {
				t.Fatalf("longest skip built is %d, want 32", top)
			}
		})
	}
}

// TestGoldenLongSkipHeaders pins the headers of a 40-block toy acc2
// chain at skip size 3, so that the distance-8 and distance-16 skip
// digests, which the five-block chain of TestGoldenVectors never
// builds, are fixed byte for byte through each header's SkipListRoot.
// Regenerate with `go test ./internal/core/ -run
// TestGoldenLongSkipHeaders -update` after an intentional format
// change.
func TestGoldenLongSkipHeaders(t *testing.T) {
	acc := accumulator.KeyGenCon2Deterministic(pairing.Toy(), 128, accumulator.HashEncoder{Q: 128}, []byte("golden"))
	node := NewFullNode(0, &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 3, Width: testWidth})
	mineSkipChain(t, node, 40)
	if got := mustADS(t, node, 39).Skips; len(got) != 3 || got[2].Distance != 16 {
		t.Fatalf("block 39 skips %+v, want distances 4, 8 and 16", got)
	}
	var hdrBytes []byte
	for _, h := range node.Store.Headers() {
		hdrBytes = append(hdrBytes, h.Bytes()...)
	}
	path := goldenPath(t, "golden_headers_toy_acc2_skip3.bin")
	if *updateGolden {
		if err := os.WriteFile(path, hdrBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d B)", path, len(hdrBytes))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(hdrBytes, want) {
		t.Error("long-skip header bytes diverge from golden fixture: a skip digest or the header encoding changed")
	}
}

// holeView is a ChainView whose block at height hole is missing, or,
// with strip set, present without skip entries.
type holeView struct {
	ChainView
	hole  int
	strip bool
}

func (v holeView) ADSAt(h int) (*BlockADS, error) {
	ads, err := v.ChainView.ADSAt(h)
	if h != v.hole || err != nil {
		return ads, err
	}
	if !v.strip {
		return nil, nil
	}
	cp := *ads
	cp.Skips = nil
	return &cp, nil
}

// TestSkipDigestNamesMissingHeight: a covered block, or the d/2 entry
// a distance-d digest is summed from, that the view cannot supply is
// an error naming its height, not a skip entry silently left out.
func TestSkipDigestNamesMissingHeight(t *testing.T) {
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth}
	node := NewFullNode(0, b)
	mineSkipChain(t, node, 9)
	for _, v := range []holeView{
		{ChainView: node, hole: 7},              // covered by the distance-4 entry at 9
		{ChainView: node, hole: 5, strip: true}, // its distance-4 entry is half of the distance-8 entry at 9
	} {
		_, err := b.BuildBlock(9, skipObjects(9), v)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("height %d", v.hole)) {
			t.Errorf("hole at %d (strip=%v): err = %v, want one naming the height", v.hole, v.strip, err)
		}
	}
}
