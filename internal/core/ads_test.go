package core

import (
	"slices"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/multiset"
)

func adsAcc(t testing.TB) accumulator.Accumulator {
	t.Helper()
	return accumulator.KeyGenCon2Deterministic(pairing.Toy(), 512, accumulator.HashEncoder{Q: 512}, []byte("ads"))
}

func TestIndexModeString(t *testing.T) {
	if ModeNil.String() != "nil" || ModeIntra.String() != "intra" || ModeBoth.String() != "both" {
		t.Error("mode names wrong")
	}
	if IndexMode(9).String() == "" {
		t.Error("unknown mode should still render")
	}
}

func TestSkipDistances(t *testing.T) {
	if len(SkipDistances(0)) != 0 {
		t.Error("size 0 should have no skips")
	}
	d := SkipDistances(3)
	want := []int{4, 8, 16}
	if len(d) != 3 {
		t.Fatalf("got %v", d)
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("got %v want %v", d, want)
		}
	}
}

func TestBuildBlockSingleObject(t *testing.T) {
	acc := adsAcc(t)
	b := &Builder{Acc: acc, Mode: ModeIntra, Width: testWidth}
	node := NewFullNode(0, b)
	o := chain.Object{ID: 1, TS: 1, V: []int64{3}, W: []string{"solo"}}
	ads, err := b.BuildBlock(0, []chain.Object{o}, node)
	if err != nil {
		t.Fatal(err)
	}
	if !ads.Root.IsLeaf() {
		t.Fatal("single-object block should have a leaf root")
	}
	if !ads.Root.HasDigest {
		t.Fatal("leaf root must carry a digest")
	}
	if ads.MerkleRoot() == (chain.Digest{}) {
		t.Fatal("zero root")
	}
}

func TestBuildBlockOddCount(t *testing.T) {
	acc := adsAcc(t)
	b := &Builder{Acc: acc, Mode: ModeIntra, Width: testWidth}
	node := NewFullNode(0, b)
	objs := carObjects(0)[:3] // odd
	ads, err := b.BuildBlock(0, objs, node)
	if err != nil {
		t.Fatal(err)
	}
	// Count leaves.
	leaves := 0
	var walk func(n *IntraNode)
	walk = func(n *IntraNode) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			leaves++
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(ads.Root)
	if leaves != 3 {
		t.Fatalf("leaves %d, want 3", leaves)
	}
}

func TestIntraNodeUnionInvariant(t *testing.T) {
	// Every internal node's multiset must equal the union of its
	// children's and every leaf's its object's W' at the block's width,
	// and each digest must accumulate its node's multiset. The root's
	// multiset is the block's BlockW.
	acc := adsAcc(t)
	b := &Builder{Acc: acc, Mode: ModeIntra, Width: testWidth}
	node := NewFullNode(0, b)
	ads, err := b.BuildBlock(0, carObjects(0), node)
	if err != nil {
		t.Fatal(err)
	}
	if ads.Width != testWidth {
		t.Fatalf("ADS width %d, want %d", ads.Width, testWidth)
	}
	if !slices.Equal(ads.Root.Multiset(ads.Width), ads.BlockW()) {
		t.Fatalf("root multiset %v != BlockW %v", ads.Root.Multiset(ads.Width), ads.BlockW())
	}
	var walk func(n *IntraNode)
	walk = func(n *IntraNode) {
		if n == nil {
			return
		}
		var want multiset.Multiset
		if n.IsLeaf() {
			want = ObjectMultiset(*n.Obj, testWidth)
		} else {
			want = multiset.Union(n.Left.Multiset(ads.Width), n.Right.Multiset(ads.Width))
		}
		if !slices.Equal(n.Multiset(ads.Width), want) {
			t.Fatalf("node W %v != %v", n.Multiset(ads.Width), want)
		}
		dig, err := acc.Setup(want)
		if err != nil {
			t.Fatal(err)
		}
		if !acc.AccEqual(n.Digest, dig) {
			t.Fatal("node digest does not accumulate its multiset")
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(ads.Root)
}

func TestModeNilInternalNodesHaveNoDigest(t *testing.T) {
	acc := adsAcc(t)
	b := &Builder{Acc: acc, Mode: ModeNil, Width: testWidth}
	node := NewFullNode(0, b)
	ads, err := b.BuildBlock(0, carObjects(0), node)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *IntraNode)
	walk = func(n *IntraNode) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			if !n.HasDigest {
				t.Fatal("leaves always carry digests")
			}
		} else if n.HasDigest {
			t.Fatal("ModeNil internal node carries a digest")
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(ads.Root)
}

func TestSkipEntriesAggregateCorrectly(t *testing.T) {
	acc := adsAcc(t)
	b := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth}
	node := NewFullNode(0, b)
	for i := 0; i < 9; i++ {
		if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ads := mustADS(t, node, 8)
	if len(ads.Skips) != 2 { // distances 4 and 8
		t.Fatalf("skips %d, want 2", len(ads.Skips))
	}
	spans, err := ads.skipSpans(node, len(ads.Skips)-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ads.Skips {
		// The derived span must be the multiset sum over the covered
		// blocks.
		want := multiset.Multiset{}
		for j := 8 - s.Distance + 1; j <= 8; j++ {
			want = multiset.Sum(want, mustADS(t, node, j).BlockW())
		}
		if !slices.Equal(spans[i], want) {
			t.Fatalf("skip %d span mismatch", s.Distance)
		}
		// Digest must accumulate that sum.
		direct, err := acc.Setup(spans[i])
		if err != nil {
			t.Fatal(err)
		}
		if !acc.AccEqual(s.Digest, direct) {
			t.Fatalf("skip %d digest != acc(W)", s.Distance)
		}
		// PrevHash must name the landing block.
		hdr, err := node.HeaderAt(8 - s.Distance)
		if err != nil {
			t.Fatal(err)
		}
		if s.PrevHash != hdr.Hash() {
			t.Fatalf("skip %d lands on the wrong block", s.Distance)
		}
	}
	// Early blocks have no skips (not enough history).
	if len(mustADS(t, node, 2).Skips) != 0 {
		t.Error("block 2 should have no skips")
	}
	// Block 4 has exactly the distance-4 skip.
	if got := mustADS(t, node, 4).Skips; len(got) != 1 || got[0].Distance != 4 {
		t.Errorf("block 4 skips: %+v", got)
	}
}

// mustADS fetches a committed height's ADS through the view, failing
// the test on a page-in error or absence.
// countingView counts the ADS page-ins through a view.
type countingView struct {
	ChainView
	reads int
}

func (v *countingView) ADSAt(h int) (*BlockADS, error) {
	v.reads++
	return v.ChainView.ADSAt(h)
}

// TestPlanSkipBoundAndEarlyStop pins PlanSkip's two limits on span
// derivation: it considers no skip that reaches below lowest, and it
// pages in no block beyond the first span pick rejects. Among the spans
// pick accepts, the largest wins, citing pick's clause.
func TestPlanSkipBoundAndEarlyStop(t *testing.T) {
	acc := adsAcc(t)
	node := NewFullNode(0, &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 3, Width: testWidth})
	const h = 20 // skips of distance 4, 8 and 16
	for i := 0; i <= h; i++ {
		if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ads := mustADS(t, node, h)
	clause := KeywordClause("truck")
	for _, tc := range []struct {
		name      string
		lowest    int
		rejectAt  int // first covered height pick rejects, or -1
		wantFroms []int
		wantDist  int
		wantReads int
	}{
		{"all accepted", 0, -1, []int{17, 13, 5}, 16, 15},
		{"bounded by lowest", 13, -1, []int{17, 13}, 8, 7},
		{"stops at the first rejected span", 0, 13, []int{17, 13}, 4, 7},
		{"first span rejected", 0, 17, []int{17}, 0, 3},
		{"no skip above lowest", 18, -1, nil, 0, 0},
	} {
		view := &countingView{ChainView: node}
		var froms []int
		skip, w, err := ads.PlanSkip(view, acc, tc.lowest, func(from int, w multiset.Multiset) (Clause, bool) {
			froms = append(froms, from)
			return clause, from != tc.rejectAt
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(froms, tc.wantFroms) || view.reads != tc.wantReads {
			t.Errorf("%s: pick saw spans from %v after %d page-ins, want %v after %d", tc.name, froms, view.reads, tc.wantFroms, tc.wantReads)
		}
		switch {
		case tc.wantDist == 0 && skip != nil:
			t.Errorf("%s: got a distance-%d skip, want none", tc.name, skip.Distance)
		case tc.wantDist != 0 && (skip == nil || skip.Distance != tc.wantDist || !skip.Clause.Equal(clause) || w.Cardinality() == 0):
			t.Errorf("%s: got skip %+v, want distance %d citing %v", tc.name, skip, tc.wantDist, clause)
		}
	}
}

func mustADS(t *testing.T, view ChainView, h int) *BlockADS {
	t.Helper()
	ads, err := view.ADSAt(h)
	if err != nil {
		t.Fatal(err)
	}
	if ads == nil {
		t.Fatalf("no ADS at height %d", h)
	}
	return ads
}

func TestBlockADSSizePositiveAndGrowsWithMode(t *testing.T) {
	acc := adsAcc(t)
	sizes := map[IndexMode]int{}
	for _, mode := range []IndexMode{ModeNil, ModeIntra} {
		b := &Builder{Acc: acc, Mode: mode, Width: testWidth}
		node := NewFullNode(0, b)
		ads, err := b.BuildBlock(0, carObjects(0), node)
		if err != nil {
			t.Fatal(err)
		}
		sizes[mode] = ads.SizeBytes(acc)
	}
	if sizes[ModeNil] <= 0 {
		t.Fatal("nil-mode ADS should still have size (leaf digests)")
	}
	if sizes[ModeIntra] <= sizes[ModeNil] {
		t.Error("intra index should enlarge the ADS")
	}
}

func TestSkipListRootZeroWithoutSkips(t *testing.T) {
	acc := adsAcc(t)
	b := &Builder{Acc: acc, Mode: ModeIntra, Width: testWidth}
	node := NewFullNode(0, b)
	ads, err := b.BuildBlock(0, carObjects(0), node)
	if err != nil {
		t.Fatal(err)
	}
	if ads.SkipListRoot(acc) != (chain.Digest{}) {
		t.Error("no-skip block should commit a zero SkipListRoot")
	}
}

func TestJaccardClusteringGroupsSimilarObjects(t *testing.T) {
	// Two pairs of near-identical objects: the clustering should pair
	// them so that each internal node has high internal similarity.
	acc := adsAcc(t)
	b := &Builder{Acc: acc, Mode: ModeIntra, Width: testWidth}
	node := NewFullNode(0, b)
	objs := []chain.Object{
		{ID: 1, TS: 1, V: []int64{1}, W: []string{"alpha", "beta", "gamma"}},
		{ID: 2, TS: 1, V: []int64{9}, W: []string{"delta", "epsilon", "zeta"}},
		{ID: 3, TS: 1, V: []int64{1}, W: []string{"alpha", "beta", "gamma"}},
		{ID: 4, TS: 1, V: []int64{9}, W: []string{"delta", "epsilon", "zeta"}},
	}
	ads, err := b.BuildBlock(0, objs, node)
	if err != nil {
		t.Fatal(err)
	}
	// Each level-1 node should contain a matched pair: its W size
	// should equal a single object's (identical multisets union to
	// themselves).
	l, r := ads.Root.Left, ads.Root.Right
	if l == nil || r == nil {
		t.Fatal("unexpected tree shape")
	}
	oneObj := ObjectMultiset(objs[0], testWidth).Len()
	if l.Multiset(testWidth).Len() != oneObj || r.Multiset(testWidth).Len() != oneObj {
		t.Errorf("clustering failed: level-1 sizes %d and %d, want %d (perfect pairing)",
			l.Multiset(testWidth).Len(), r.Multiset(testWidth).Len(), oneObj)
	}
}
