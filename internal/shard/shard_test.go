package shard_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/shard"
)

const testWidth = 4

func testAcc(t testing.TB) accumulator.Accumulator {
	t.Helper()
	pr := pairing.Toy()
	return accumulator.KeyGenCon2Deterministic(pr, 512, accumulator.HashEncoder{Q: 512}, []byte("shard"))
}

func testBuilder(acc accumulator.Accumulator) *core.Builder {
	return &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: 2, Width: testWidth}
}

// carObjects mirrors the core e2e fixture: four rental cars per block.
func carObjects(base uint64) []chain.Object {
	return []chain.Object{
		{ID: chain.ObjectID(base + 1), TS: int64(base), V: []int64{3}, W: []string{"sedan", "benz"}},
		{ID: chain.ObjectID(base + 2), TS: int64(base), V: []int64{5}, W: []string{"sedan", "audi"}},
		{ID: chain.ObjectID(base + 3), TS: int64(base), V: []int64{7}, W: []string{"van", "benz"}},
		{ID: chain.ObjectID(base + 4), TS: int64(base), V: []int64{9}, W: []string{"van", "bmw"}},
	}
}

func mineBlocks(t testing.TB, n interface {
	MineBlock([]chain.Object, int64) (*chain.Block, error)
}, blocks int) {
	t.Helper()
	for i := 0; i < blocks; i++ {
		if _, err := n.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatalf("mining block %d: %v", i, err)
		}
	}
}

func sedanBenzQuery(start, end int) core.Query {
	return core.Query{
		StartBlock: start,
		EndBlock:   end,
		Bool:       core.CNF{core.KeywordClause("sedan"), core.KeywordClause("benz", "bmw")},
		Width:      testWidth,
	}
}

func lightFor(t testing.TB, headers []chain.Header) *chain.LightStore {
	t.Helper()
	light := chain.NewLightStore(0)
	if err := light.Sync(headers); err != nil {
		t.Fatal(err)
	}
	return light
}

// TestShardedMatchesUnsharded mines the same chain into a monolithic
// node and sharded nodes of several counts, then checks that every
// window — including windows straddling two or more shard boundaries —
// yields byte-identical results, and that the merged parts verify
// through the single-batch union path.
func TestShardedMatchesUnsharded(t *testing.T) {
	acc := testAcc(t)
	const blocks = 12

	mono := core.NewFullNode(0, testBuilder(acc))
	mineBlocks(t, mono, blocks)
	light := lightFor(t, mono.Store.Headers())
	ver := &core.Verifier{Acc: acc, Light: light}

	windows := [][2]int{
		{0, blocks - 1}, // full window: every shard covered
		{1, 7},          // straddles the band boundaries at 2/4/6
		{3, 4},          // exactly one boundary
		{5, 5},          // single block, single shard
	}

	for _, shards := range []int{1, 2, 3, 4} {
		node := shard.New(0, testBuilder(acc), shard.Options{Shards: shards, Band: 2, Workers: shards})
		mineBlocks(t, node, blocks)
		if got, want := node.Headers(), mono.Store.Headers(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards: headers diverge from the monolithic chain", shards)
		}
		for _, w := range windows {
			q := sedanBenzQuery(w[0], w[1])
			wantVO, err := mono.SP(false).TimeWindowQuery(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ver.VerifyTimeWindow(q, wantVO)
			if err != nil {
				t.Fatal(err)
			}
			parts, err := node.TimeWindowParts(context.Background(), q, false)
			if err != nil {
				t.Fatalf("%d shards window %v: %v", shards, w, err)
			}
			got, err := ver.VerifyWindowParts(q, parts)
			if err != nil {
				t.Fatalf("%d shards window %v: union verification: %v", shards, w, err)
			}
			if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
				t.Fatalf("%d shards window %v: results diverge\n got %v\nwant %v", shards, w, got, want)
			}
			// The parts must tile the window descending with no gaps.
			expect := w[1]
			for _, p := range parts {
				if p.End != expect {
					t.Fatalf("%d shards window %v: part covers [%d,%d], expected end %d", shards, w, p.Start, p.End, expect)
				}
				expect = p.Start - 1
			}
			if expect != w[0]-1 {
				t.Fatalf("%d shards window %v: parts stop at %d", shards, w, expect+1)
			}
		}
		node.Close()
	}
}

// TestConcurrentMineAndQuery hammers a node with a concurrent miner and
// cross-shard readers at every shard count; run under -race it checks
// the single-lock commit discipline (a reader can never see the height
// advanced without the owning shard's ADS published — the torn-commit
// regression) while every answer still verifies.
func TestConcurrentMineAndQuery(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			acc := testAcc(t)
			node := shard.New(0, testBuilder(acc), shard.Options{Shards: shards, Band: 2, Workers: shards})
			mineBlocks(t, node, 4) // pre-mine so readers always have a window
			defer node.Close()

			const extra = 8
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					light := chain.NewLightStore(0)
					ver := &core.Verifier{Acc: acc, Light: light}
					for {
						select {
						case <-stop:
							return
						default:
						}
						// The invariant under attack: once the store
						// height is visible, every ADS below it is too.
						for h := node.Height() - 1; h >= 0; h-- {
							if ads, err := node.ADSAt(h); err != nil || ads == nil {
								t.Errorf("torn commit: height %d visible before its ADS (%v)", h, err)
								return
							}
						}
						headers := node.Headers()
						if err := light.Sync(headers[light.Height():]); err != nil {
							t.Error(err)
							return
						}
						q := sedanBenzQuery(0, light.Height()-1)
						parts, err := node.TimeWindowParts(context.Background(), q, false)
						if err != nil {
							t.Error(err)
							return
						}
						if _, err := ver.VerifyWindowParts(q, parts); err != nil {
							t.Errorf("concurrent union verification: %v", err)
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(stop)
				for i := 0; i < extra; i++ {
					if _, err := node.MineBlock(carObjects(uint64(1000+i*10)), int64(5000+i)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
			if got := node.Height(); got != 4+extra {
				t.Fatalf("height %d after concurrent mining, want %d", got, 4+extra)
			}
		})
	}
}

// TestReopenTornTail crashes one shard mid-write (a truncated final
// record) and reopens, at every shard count: that shard's recovery
// report must surface the torn tail, the other shards must stay intact
// (merely truncating the records stranded above the restored height),
// the surviving prefix must still verify, and mining must resume.
func TestReopenTornTail(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			acc := testAcc(t)
			dir := t.TempDir()
			opts := shard.Options{Shards: shards, Band: 1, Workers: shards}

			node, rep, err := shard.Open(0, testBuilder(acc), dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Blocks != 0 {
				t.Fatalf("fresh store restored %d blocks", rep.Blocks)
			}
			const blocks = 9 // band 1: shard i owns heights i, i+shards, …
			mineBlocks(t, node, blocks)
			node.Close()

			// Tear the tail of the shard owning height 7: its last
			// record — the highest height it owns — is cut short.
			torn := (blocks - 2) % shards
			lost := blocks - 1
			for lost%shards != torn {
				lost--
			}
			seg := filepath.Join(dir, fmt.Sprintf("shard-%03d", torn), "00000000.vseg")
			st, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, st.Size()-5); err != nil {
				t.Fatal(err)
			}

			node, rep, err = shard.Open(0, testBuilder(acc), dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer node.Close()
			// The chain is whole below the lost height and stops there;
			// records above it in sibling shards are stranded and dropped.
			if rep.Blocks != lost || node.Height() != lost {
				t.Fatalf("restored %d blocks (height %d), want %d", rep.Blocks, node.Height(), lost)
			}
			dropped := 0
			for i, sr := range rep.Shards {
				if sr.Log.Truncated != (i == torn) {
					t.Fatalf("shard %d report %+v (torn shard is %d)", i, sr, torn)
				}
				dropped += sr.Dropped
			}
			if want := blocks - 1 - lost; dropped != want {
				t.Fatalf("dropped %d stranded records, want %d: %+v", dropped, want, rep.Shards)
			}

			// The restored chain still answers verifiable queries...
			ver := &core.Verifier{Acc: acc, Light: lightFor(t, node.Headers())}
			q := sedanBenzQuery(0, lost-1)
			parts, err := node.TimeWindowParts(context.Background(), q, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ver.VerifyWindowParts(q, parts); err != nil {
				t.Fatalf("post-recovery verification: %v", err)
			}
			// ...and mining re-fills the lost height.
			if _, err := node.MineBlock(carObjects(12345), 9999); err != nil {
				t.Fatalf("mining after recovery: %v", err)
			}
			if got := node.Height(); got != lost+1 {
				t.Fatalf("height %d after post-recovery mine, want %d", got, lost+1)
			}
		})
	}
}

// TestReopenSurvivesRestart round-trips a durable store cleanly at
// every shard count — the chain and every ADS body come back from the
// logs, nothing is rebuilt, the reopened node serves a verified query
// and keeps mining — and checks the topology guard rejects a
// conflicting shard count.
func TestReopenSurvivesRestart(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			acc := testAcc(t)
			dir := t.TempDir()
			opts := shard.Options{Shards: shards, Band: 2, Workers: shards}

			node, _, err := shard.Open(0, testBuilder(acc), dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			const blocks = 6
			mineBlocks(t, node, blocks)
			headers := node.Headers()
			node.Close()

			// Reopen adopting the recorded topology.
			node, rep, err := shard.Open(0, testBuilder(acc), dir, shard.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Blocks != blocks || node.Shards() != shards {
				t.Fatalf("restored %d blocks over %d shards, want %d over %d", rep.Blocks, node.Shards(), blocks, shards)
			}
			if !reflect.DeepEqual(node.Headers(), headers) {
				t.Fatal("reopened chain diverges")
			}
			if node.SetupStats.Blocks != 0 {
				t.Fatalf("reopen rebuilt %d ADSs, want 0", node.SetupStats.Blocks)
			}
			for h := range headers {
				if ads, err := node.ADSAt(h); err != nil || ads == nil {
					t.Fatalf("no ADS at %d after reopen: %v", h, err)
				}
			}
			ver := &core.Verifier{Acc: acc, Light: lightFor(t, headers)}
			q := sedanBenzQuery(0, blocks-1)
			parts, err := node.TimeWindowParts(context.Background(), q, false)
			if err != nil {
				t.Fatal(err)
			}
			if objs, err := ver.VerifyWindowParts(q, parts); err != nil || len(objs) != blocks {
				t.Fatalf("reopened node's answer: %d results, %v", len(objs), err)
			}
			// Mining continues the persisted chain.
			if _, err := node.MineBlock(carObjects(uint64(blocks*10)), int64(1000+blocks)); err != nil {
				t.Fatal(err)
			}
			node.Close()

			if _, _, err := shard.Open(0, testBuilder(acc), dir, shard.Options{Shards: shards + 1, Band: 2}); err == nil {
				t.Fatal("conflicting shard count accepted")
			} else if !strings.Contains(err.Error(), "topology") {
				t.Fatalf("unexpected topology error: %v", err)
			}
		})
	}
}
