package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
)

// testWidth keeps prefix sets small so toy accumulator keys suffice.
const testWidth = 4

func testAccs(t testing.TB) map[string]accumulator.Accumulator {
	t.Helper()
	pr := pairing.Toy()
	return map[string]accumulator.Accumulator{
		"acc1": accumulator.KeyGenCon1Deterministic(pr, 256, []byte("e2e")),
		"acc2": accumulator.KeyGenCon2Deterministic(pr, 512, accumulator.HashEncoder{Q: 512}, []byte("e2e")),
	}
}

// carObjects is the running example of §5.1/§6.1: four rental cars.
func carObjects(base uint64) []chain.Object {
	return []chain.Object{
		{ID: chain.ObjectID(base + 1), TS: int64(base), V: []int64{3}, W: []string{"sedan", "benz"}},
		{ID: chain.ObjectID(base + 2), TS: int64(base), V: []int64{5}, W: []string{"sedan", "audi"}},
		{ID: chain.ObjectID(base + 3), TS: int64(base), V: []int64{7}, W: []string{"van", "benz"}},
		{ID: chain.ObjectID(base + 4), TS: int64(base), V: []int64{9}, W: []string{"van", "bmw"}},
	}
}

func buildTestChain(t testing.TB, acc accumulator.Accumulator, mode IndexMode, blocks int) (*FullNode, *chain.LightStore) {
	t.Helper()
	b := &Builder{Acc: acc, Mode: mode, SkipSize: 2, Width: testWidth}
	node := NewFullNode(0, b)
	for i := 0; i < blocks; i++ {
		if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	light := chain.NewLightStore(0)
	if err := light.Sync(node.Store.Headers()); err != nil {
		t.Fatal(err)
	}
	return node, light
}

func sedanBenzQuery(start, end int) Query {
	return Query{
		StartBlock: start,
		EndBlock:   end,
		Bool:       CNF{KeywordClause("sedan"), KeywordClause("benz", "bmw")},
		Width:      testWidth,
	}
}

func TestEndToEndAllModesAndAccs(t *testing.T) {
	for accName, acc := range testAccs(t) {
		for _, mode := range []IndexMode{ModeNil, ModeIntra, ModeBoth} {
			t.Run(fmt.Sprintf("%s/%s", accName, mode), func(t *testing.T) {
				node, light := buildTestChain(t, acc, mode, 3)
				q := sedanBenzQuery(0, 2)
				vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				ver := &Verifier{Acc: acc, Light: light}
				results, err := ver.VerifyTimeWindow(q, vo)
				if err != nil {
					t.Fatalf("verification failed: %v", err)
				}
				// Exactly one car per block matches: {sedan, benz}.
				if len(results) != 3 {
					t.Fatalf("got %d results, want 3", len(results))
				}
				for _, o := range results {
					if o.W[0] != "sedan" || o.W[1] != "benz" {
						t.Fatalf("wrong result %v", o)
					}
				}
			})
		}
	}
}

func TestEndToEndRangeQuery(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeIntra, 2)
	// Price range [3,5] selects the two sedans of each block.
	q := Query{
		StartBlock: 0, EndBlock: 1,
		Range: &RangeCond{Lo: []int64{3}, Hi: []int64{5}},
		Width: testWidth,
	}
	vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	results, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for _, o := range results {
		if o.V[0] < 3 || o.V[0] > 5 {
			t.Fatalf("result %v outside range", o)
		}
	}
}

func TestEndToEndCombinedRangeAndBoolean(t *testing.T) {
	acc := testAccs(t)["acc1"]
	node, light := buildTestChain(t, acc, ModeBoth, 4)
	// Price in [3,7] AND benz: matches o1 (3, benz) and o3 (7, benz).
	q := Query{
		StartBlock: 0, EndBlock: 3,
		Range: &RangeCond{Lo: []int64{3}, Hi: []int64{7}},
		Bool:  CNF{KeywordClause("benz")},
		Width: testWidth,
	}
	vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	results, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 { // 2 per block × 4 blocks
		t.Fatalf("got %d results, want 8", len(results))
	}
}

func TestEndToEndNoResults(t *testing.T) {
	// A query matching nothing must still verify (all-mismatch VO).
	for accName, acc := range testAccs(t) {
		for _, mode := range []IndexMode{ModeNil, ModeIntra, ModeBoth} {
			t.Run(fmt.Sprintf("%s/%s", accName, mode), func(t *testing.T) {
				node, light := buildTestChain(t, acc, mode, 6)
				q := Query{
					StartBlock: 0, EndBlock: 5,
					Bool:  CNF{KeywordClause("tesla")},
					Width: testWidth,
				}
				vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				results, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
				if err != nil {
					t.Fatal(err)
				}
				if len(results) != 0 {
					t.Fatalf("got %d results, want 0", len(results))
				}
				if mode == ModeBoth {
					// The whole window should collapse into skips +
					// few per-block entries: strictly fewer VO entries
					// than blocks.
					if len(vo.Blocks) >= 6 {
						t.Errorf("skips unused: %d VO entries for 6 blocks", len(vo.Blocks))
					}
				}
			})
		}
	}
}

func TestEndToEndBatchVerification(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeIntra, 4)
	q := sedanBenzQuery(0, 3)
	vo, err := node.SP(true).TimeWindowQuery(context.Background(), q) // batch on
	if err != nil {
		t.Fatal(err)
	}
	if len(vo.Groups) == 0 {
		t.Fatal("batch mode produced no groups")
	}
	results, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	// Batch mode should shrink the VO relative to individual proofs.
	voPlain, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if vo.SizeBytes(acc) >= voPlain.SizeBytes(acc) {
		t.Errorf("batched VO (%d B) not smaller than plain (%d B)",
			vo.SizeBytes(acc), voPlain.SizeBytes(acc))
	}
}

func TestBatchIgnoredForAcc1(t *testing.T) {
	acc := testAccs(t)["acc1"]
	node, light := buildTestChain(t, acc, ModeIntra, 2)
	q := sedanBenzQuery(0, 1)
	vo, err := node.SP(true).TimeWindowQuery(context.Background(), q) // batch requested but unsupported
	if err != nil {
		t.Fatal(err)
	}
	if len(vo.Groups) != 0 {
		t.Fatal("acc1 must not batch")
	}
	if _, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo); err != nil {
		t.Fatal(err)
	}
}

// --- Adversarial SP behaviours: every tampering must be caught. ---

func TestTamperedResultObjectRejected(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeIntra, 2)
	q := sedanBenzQuery(0, 1)
	vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Flip an attribute of a returned object (still matching the query
	// so the local predicate check passes — only the hash chain can
	// catch it).
	tampered := false
	var tamper func(n *NodeVO)
	tamper = func(n *NodeVO) {
		if n == nil || tampered {
			return
		}
		if n.Kind == KindResult {
			n.Obj.V = []int64{4} // 4 still ∈ any unconstrained query
			tampered = true
			return
		}
		tamper(n.Left)
		tamper(n.Right)
	}
	for i := range vo.Blocks {
		tamper(vo.Blocks[i].Tree)
	}
	if !tampered {
		t.Fatal("no result to tamper with")
	}
	_, err = (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
	if !errors.Is(err, ErrCompleteness) && !errors.Is(err, ErrSoundness) {
		t.Fatalf("tampered object not rejected: %v", err)
	}
}

func TestOmittedResultRejected(t *testing.T) {
	// The SP drops a matching object by replacing its leaf with a
	// mismatch claim — but it cannot build a valid disjointness proof,
	// so it transplants one from another clause. Must be rejected.
	for accName, acc := range testAccs(t) {
		t.Run(accName, func(t *testing.T) {
			node, light := buildTestChain(t, acc, ModeIntra, 1)
			q := sedanBenzQuery(0, 0)
			vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			// Find a genuine mismatch node to steal proof material from.
			var donor *NodeVO
			var findDonor func(n *NodeVO)
			findDonor = func(n *NodeVO) {
				if n == nil || donor != nil {
					return
				}
				if n.Kind == KindMismatch {
					donor = n
					return
				}
				findDonor(n.Left)
				findDonor(n.Right)
			}
			findDonor(vo.Blocks[0].Tree)
			if donor == nil {
				t.Fatal("no donor mismatch node")
			}
			// Replace the first result leaf with a fake mismatch.
			replaced := false
			var replace func(n *NodeVO)
			replace = func(n *NodeVO) {
				if n == nil || replaced {
					return
				}
				if n.Kind == KindResult {
					pre := leafPreHash(n.Obj.Hash())
					n.Kind = KindMismatch
					n.PreHash = pre
					n.Clause = donor.Clause
					n.Proof = donor.Proof
					n.Group = -1
					n.Obj = nil
					replaced = true
					return
				}
				replace(n.Left)
				replace(n.Right)
			}
			replace(vo.Blocks[0].Tree)
			if !replaced {
				t.Fatal("no result to omit")
			}
			_, err = (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
			if err == nil {
				t.Fatal("omitted result accepted: completeness broken")
			}
		})
	}
}

func TestTruncatedVORejected(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeIntra, 3)
	q := sedanBenzQuery(0, 2)
	vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	vo.Blocks = vo.Blocks[:len(vo.Blocks)-1] // drop the oldest block
	_, err = (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
	if !errors.Is(err, ErrCompleteness) {
		t.Fatalf("truncated VO not rejected: %v", err)
	}
}

func TestForeignClauseRejected(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeIntra, 1)
	q := sedanBenzQuery(0, 0)
	vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Swap a mismatch node's clause for one not in the query; keep its
	// proof consistent with the foreign clause (the SP *can* produce
	// such a proof — the verifier must reject it by clause membership).
	done := false
	var attack func(n *NodeVO)
	attack = func(n *NodeVO) {
		if n == nil || done {
			return
		}
		if n.Kind == KindMismatch {
			foreign := KeywordClause("spaceship")
			// All car multisets are disjoint from "spaceship", so a
			// valid proof exists; simulate the SP computing it.
			ads := mustADS(t, node, 0)
			pf, err := acc.ProveDisjoint(ads.BlockW(), foreign.Multiset())
			if err != nil {
				t.Fatal(err)
			}
			n.Clause = foreign
			n.Proof = &pf
			n.Digest = ads.Root.Digest
			done = true
			return
		}
		attack(n.Left)
		attack(n.Right)
	}
	for i := range vo.Blocks {
		attack(vo.Blocks[i].Tree)
	}
	if !done {
		t.Fatal("no mismatch node found")
	}
	_, err = (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
	if err == nil {
		t.Fatal("foreign-clause proof accepted")
	}
}

func TestSkipTamperingRejected(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeBoth, 8)
	q := Query{StartBlock: 0, EndBlock: 7, Bool: CNF{KeywordClause("tesla")}, Width: testWidth}
	vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var skipIdx = -1
	for i := range vo.Blocks {
		if vo.Blocks[i].Skip != nil {
			skipIdx = i
			break
		}
	}
	if skipIdx == -1 {
		t.Fatal("no skip used; test setup broken")
	}

	// (a) Tamper with the landing hash: teleport attack.
	voA, _ := node.SP(false).TimeWindowQuery(context.Background(), q)
	voA.Blocks[skipIdx].Skip.PrevHash[0] ^= 0xFF
	if _, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, voA); err == nil {
		t.Fatal("teleporting skip accepted")
	}

	// (b) Tamper with the skip digest.
	voB, _ := node.SP(false).TimeWindowQuery(context.Background(), q)
	voB.Blocks[skipIdx].Skip.Digest = accumulator.Acc{}
	if _, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, voB); err == nil {
		t.Fatal("forged skip digest accepted")
	}

	// (c) Overstate the distance (skip more blocks than proven).
	voC, _ := node.SP(false).TimeWindowQuery(context.Background(), q)
	voC.Blocks[skipIdx].Skip.Distance *= 2
	if _, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, voC); err == nil {
		t.Fatal("overstated skip distance accepted")
	}
}

func TestWindowBeyondChainRejected(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeIntra, 2)
	q := sedanBenzQuery(0, 5) // chain has only 2 blocks
	if _, err := node.SP(false).TimeWindowQuery(context.Background(), q); err == nil {
		t.Error("SP accepted out-of-range window")
	}
	_, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, &VO{})
	if !errors.Is(err, ErrCompleteness) {
		t.Errorf("verifier accepted out-of-range window: %v", err)
	}
}

func TestVOSizePositiveAndOrdered(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, _ := buildTestChain(t, acc, ModeIntra, 3)
	q := sedanBenzQuery(0, 2)
	vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if vo.SizeBytes(acc) <= 0 {
		t.Error("VO size must be positive")
	}
	// Larger window, larger VO.
	q1 := sedanBenzQuery(0, 0)
	vo1, _ := node.SP(false).TimeWindowQuery(context.Background(), q1)
	if vo1.SizeBytes(acc) >= vo.SizeBytes(acc) {
		t.Error("VO size should grow with the window")
	}
}

func TestSetupStatsAccumulate(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, _ := buildTestChain(t, acc, ModeIntra, 3)
	if node.SetupStats.Blocks != 3 {
		t.Errorf("Blocks = %d", node.SetupStats.Blocks)
	}
	if node.SetupStats.BuildTime <= 0 || node.SetupStats.ADSBytes <= 0 {
		t.Error("stats not accumulated")
	}
}

func TestEmptyBlockRejected(t *testing.T) {
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeIntra, Width: testWidth}
	node := NewFullNode(0, b)
	if _, err := node.MineBlock(nil, 1); err == nil {
		t.Error("empty block accepted")
	}
}
