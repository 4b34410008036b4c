package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/vchain-go/vchain/internal/chain"
)

// TestRandomizedEquivalenceWithBruteForce is the repository's strongest
// integration property: over random chains and random queries, the
// verified pipeline (SP → VO → verifier) must return exactly the
// objects a direct scan of the raw data returns — for every index mode,
// both accumulators, and with and without batching.
func TestRandomizedEquivalenceWithBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized end-to-end is slow under -short")
	}
	accs := testAccs(t)
	rng := rand.New(rand.NewSource(123))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon"}

	for trial := 0; trial < 4; trial++ {
		// Random chain: 4-6 blocks, 2-4 objects each, 4-bit values.
		nBlocks := 4 + rng.Intn(3)
		var all [][]chain.Object
		id := uint64(1)
		for b := 0; b < nBlocks; b++ {
			n := 2 + rng.Intn(3)
			blk := make([]chain.Object, n)
			for i := range blk {
				nkw := 1 + rng.Intn(2)
				kws := map[string]bool{}
				for len(kws) < nkw {
					kws[vocab[rng.Intn(len(vocab))]] = true
				}
				var w []string
				for k := range kws {
					w = append(w, k)
				}
				sort.Strings(w)
				blk[i] = chain.Object{
					ID: chain.ObjectID(id), TS: int64(b),
					V: []int64{int64(rng.Intn(16))},
					W: w,
				}
				id++
			}
			all = append(all, blk)
		}

		// Random query: range + 1-2 keyword clauses over a random window.
		lo := int64(rng.Intn(12))
		hi := lo + int64(rng.Intn(int(16-lo)))
		var cnf CNF
		for c := 0; c < 1+rng.Intn(2); c++ {
			n := 1 + rng.Intn(2)
			kws := map[string]bool{}
			for len(kws) < n {
				kws[vocab[rng.Intn(len(vocab))]] = true
			}
			var ks []string
			for k := range kws {
				ks = append(ks, k)
			}
			cnf = append(cnf, KeywordClause(ks...))
		}
		start := rng.Intn(nBlocks)
		end := start + rng.Intn(nBlocks-start)
		q := Query{
			StartBlock: start, EndBlock: end,
			Range: &RangeCond{Lo: []int64{lo}, Hi: []int64{hi}},
			Bool:  cnf,
			Width: testWidth,
		}

		// Brute force ground truth.
		var want []chain.ObjectID
		for b := start; b <= end; b++ {
			for _, o := range all[b] {
				if q.MatchesObject(o.V, o.W) {
					want = append(want, o.ID)
				}
			}
		}

		for accName, acc := range accs {
			for _, mode := range []IndexMode{ModeNil, ModeIntra, ModeBoth} {
				for _, batch := range []bool{false, true} {
					label := fmt.Sprintf("trial%d/%s/%v/batch=%v", trial, accName, mode, batch)
					builder := &Builder{Acc: acc, Mode: mode, SkipSize: 2, Width: testWidth}
					node := NewFullNode(0, builder)
					for b, blk := range all {
						if _, err := node.MineBlock(blk, int64(b)); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
					}
					light := chain.NewLightStore(0)
					if err := light.Sync(node.Store.Headers()); err != nil {
						t.Fatal(err)
					}
					vo, err := node.SP(batch).TimeWindowQuery(context.Background(), q)
					if err != nil {
						t.Fatalf("%s: SP failed: %v", label, err)
					}
					got, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
					if err != nil {
						t.Fatalf("%s: verify failed: %v", label, err)
					}
					gotIDs := make([]chain.ObjectID, len(got))
					for i, o := range got {
						gotIDs[i] = o.ID
					}
					sortObjIDs(gotIDs)
					wantSorted := append([]chain.ObjectID{}, want...)
					sortObjIDs(wantSorted)
					if len(gotIDs) != len(wantSorted) {
						t.Fatalf("%s: got %v want %v (query %v over [%d,%d])",
							label, gotIDs, wantSorted, cnf, start, end)
					}
					for i := range gotIDs {
						if gotIDs[i] != wantSorted[i] {
							t.Fatalf("%s: got %v want %v", label, gotIDs, wantSorted)
						}
					}
				}
			}
		}
	}
}

func sortObjIDs(xs []chain.ObjectID) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// TestVOResultsMatchVerifier checks that VO.Results() (the SP-side
// extraction) agrees with what the verifier returns.
func TestVOResultsMatchVerifier(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeIntra, 3)
	q := sedanBenzQuery(0, 2)
	vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	fromVO := vo.Results()
	verified, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromVO) != len(verified) {
		t.Fatalf("VO.Results %d != verified %d", len(fromVO), len(verified))
	}
	for i := range fromVO {
		if fromVO[i].ID != verified[i].ID {
			t.Fatal("result order disagrees")
		}
	}
}
