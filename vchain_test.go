package vchain

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/storage"
)

func testSystem(t testing.TB, accName string, mode IndexMode) *System {
	t.Helper()
	sys, err := NewSystem(Config{
		Preset:       "toy",
		Accumulator:  accName,
		Index:        mode,
		SkipListSize: 2,
		BitWidth:     4,
		Capacity:     512,
		Difficulty:   1,
		Seed:         []byte("facade-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func carBlock(i int) []Object {
	base := uint64(i * 10)
	return []Object{
		{ID: ObjectID(base + 1), TS: int64(i), V: []int64{4}, W: []string{"sedan", "benz"}},
		{ID: ObjectID(base + 2), TS: int64(i), V: []int64{9}, W: []string{"van", "audi"}},
	}
}

// shardCounts is the matrix every facade behaviour runs over: one node
// type, so nothing may work at one shard count only.
var shardCounts = []int{1, 2, 4}

// forEachShardCount runs fn as a subtest per shard count.
func forEachShardCount(t *testing.T, fn func(t *testing.T, shards int)) {
	t.Helper()
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { fn(t, shards) })
	}
}

// mine appends carBlock(from..to-1) to the node.
func mine(t *testing.T, node *Node, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, _, err := node.Mine(carBlock(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// syncedClient returns a light client holding the node's headers.
func syncedClient(t *testing.T, sys *System, node *Node) *LightClient {
	t.Helper()
	client := sys.NewLightClient()
	if err := client.SyncHeaders(node.Headers()); err != nil {
		t.Fatal(err)
	}
	return client
}

func TestFacadeEndToEnd(t *testing.T) {
	for _, accName := range []string{"acc1", "acc2"} {
		t.Run(accName, func(t *testing.T) {
			sys := testSystem(t, accName, IndexBoth)
			forEachShardCount(t, func(t *testing.T, shards int) {
				node := sys.NewNode(shards)
				defer node.Close()
				const blocks = 12 // default band 8: the window crosses a band edge
				mine(t, node, 0, blocks)
				if node.Shards() != shards || len(node.ShardStats()) != shards {
					t.Fatalf("shards %d, stats %d; want %d", node.Shards(), len(node.ShardStats()), shards)
				}
				client := syncedClient(t, sys, node)
				if client.Height() != blocks {
					t.Fatalf("client height %d", client.Height())
				}
				q := Query{
					StartBlock: 0, EndBlock: blocks - 1,
					Range: &RangeCond{Lo: []int64{0}, Hi: []int64{5}},
					Bool:  And(Or("sedan")),
					Width: 4,
				}
				parts, err := node.TimeWindow(q)
				if err != nil {
					t.Fatal(err)
				}
				if shards == 1 && len(parts) != 1 {
					t.Fatalf("one shard answered with %d parts", len(parts))
				}
				results, err := client.Verify(q, parts)
				if err != nil {
					t.Fatal(err)
				}
				if len(results) != blocks {
					t.Fatalf("results %d, want %d", len(results), blocks)
				}
				// The reference verifier agrees with the batched one.
				ref := client.verifier()
				ref.Sequential = true
				seq, err := ref.VerifyWindowParts(q, parts)
				if err != nil || len(seq) != len(results) {
					t.Fatalf("sequential verifier: %d results, %v", len(seq), err)
				}
				if client.VOSize(parts[0].VO) <= 0 {
					t.Error("VO size should be positive")
				}
				// A dropped part is incompleteness.
				if _, err := client.Verify(q, parts[1:]); !errors.Is(err, ErrCompleteness) {
					t.Fatalf("dropped part: err = %v, want ErrCompleteness", err)
				}
				if client.StorageBits() <= 0 {
					t.Error("light storage should be positive")
				}
				if st := node.ProofStats(); st.Proofs == 0 {
					t.Error("aggregated proof stats empty")
				}
			})
		})
	}
}

func TestFacadeBatchedQuery(t *testing.T) {
	sys := testSystem(t, "acc2", IndexIntra)
	node := sys.NewNode(1)
	mine(t, node, 0, 3)
	client := syncedClient(t, sys, node)
	q := Query{StartBlock: 0, EndBlock: 2, Bool: And(Or("tesla")), Width: 4}
	parts, err := node.TimeWindow(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Verify(q, parts); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeSubscription: in-process subscriptions work at every shard
// count — each block's publication is sourced from its owning shard and
// verifies against the headers alone.
func TestFacadeSubscription(t *testing.T) {
	sys := testSystem(t, "acc2", IndexBoth)
	forEachShardCount(t, func(t *testing.T, shards int) {
		node := sys.NewNode(shards)
		defer node.Close()
		q := Query{Bool: And(Or("sedan")), Width: 4}
		id, err := node.Subscribe(q, SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		const blocks = 20 // default band 8: every shard of 2, three of 4
		var pubs []Publication
		for i := 0; i < blocks; i++ {
			_, p, err := node.Mine(carBlock(i), int64(i))
			if err != nil {
				t.Fatal(err)
			}
			pubs = append(pubs, p...)
		}
		client := syncedClient(t, sys, node)
		total := 0
		for i := range pubs {
			objs, err := client.VerifyPublication(q, &pubs[i])
			if err != nil {
				t.Fatal(err)
			}
			total += len(objs)
		}
		if total != blocks {
			t.Fatalf("subscription results %d, want %d", total, blocks)
		}
		if pub := node.Unsubscribe(id); pub != nil {
			t.Error("no pending span expected in real-time mode")
		}
		// Unsubscribed: mining publishes nothing more.
		if _, p, err := node.Mine(carBlock(blocks), blocks); err != nil || len(p) != 0 {
			t.Fatalf("after Unsubscribe: %d publications, %v", len(p), err)
		}
	})
}

// TestFacadeMineDropsUnprovableSubscription: a local subscription whose
// keyword encodes to the code of an element of the block cannot be
// proved disjoint from it. Mine drops it and returns the mined block,
// the other subscription's publication and a *DroppedError naming it;
// mining goes on.
func TestFacadeMineDropsUnprovableSubscription(t *testing.T) {
	sys := testSystem(t, "acc2", IndexBoth)
	enc := accumulator.HashEncoder{Q: 512} // testSystem's Capacity
	forEachShardCount(t, func(t *testing.T, shards int) {
		node := sys.NewNode(shards)
		defer node.Close()
		mine(t, node, 0, 1)
		ads, err := node.node.ADSAt(0)
		if err != nil {
			t.Fatal(err)
		}
		w := ads.BlockW()
		codes := map[int]bool{}
		for _, e := range w {
			c, _ := enc.Encode(e.Elem)
			codes[c] = true
		}
		kw := ""
		for i := 0; kw == "" && i < 1<<16; i++ {
			el := core.KeywordElement(fmt.Sprintf("absent-%d", i))
			if c, _ := enc.Encode(el); codes[c] && !w.IntersectsSet([]string{el}) {
				kw = fmt.Sprintf("absent-%d", i)
			}
		}
		if kw == "" {
			t.Fatal("no colliding keyword found")
		}
		bad, err := node.Subscribe(Query{Bool: And(Or(kw)), Width: 4}, SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		good, err := node.Subscribe(Query{Bool: And(Or("sedan")), Width: 4}, SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		blk, pubs, err := node.Mine(carBlock(1), 1)
		var dropped *DroppedError
		if !errors.As(err, &dropped) || !slices.Equal(dropped.IDs, []int{bad}) {
			t.Fatalf("Mine error %v, want a *DroppedError of subscription %d", err, bad)
		}
		if blk == nil || blk.Header.Height != 1 || len(pubs) != 1 || pubs[0].QueryID != good {
			t.Fatalf("Mine returned block %v and %d publications, want block 1 and q%d's", blk, len(pubs), good)
		}
		if _, pubs, err := node.Mine(carBlock(2), 2); err != nil || len(pubs) != 1 {
			t.Fatalf("after the drop: %d publications, %v", len(pubs), err)
		}
	})
}

func TestFacadeRejectsTamperedVO(t *testing.T) {
	sys := testSystem(t, "acc2", IndexIntra)
	node := sys.NewNode(1)
	mine(t, node, 0, 1)
	client := syncedClient(t, sys, node)
	q := Query{StartBlock: 0, EndBlock: 0, Bool: And(Or("sedan")), Width: 4}
	parts, err := node.TimeWindow(q)
	if err != nil {
		t.Fatal(err)
	}
	parts[0].VO.Blocks = nil // SP returns an empty VO
	_, err = client.Verify(q, parts)
	if !errors.Is(err, ErrCompleteness) {
		t.Fatalf("want completeness violation, got %v", err)
	}
}

func TestFacadeTimestampWindow(t *testing.T) {
	sys := testSystem(t, "acc2", IndexIntra)
	node := sys.NewNode(1)
	// Blocks at timestamps 100, 110, 120.
	for i := 0; i < 3; i++ {
		if _, _, err := node.Mine(carBlock(i), int64(100+10*i)); err != nil {
			t.Fatal(err)
		}
	}
	client := sys.NewLightClient()
	if err := client.SyncHeaders(node.Headers()); err != nil {
		t.Fatal(err)
	}
	// The paper's query form: a timestamp window resolved locally on
	// both sides.
	start, end, ok := client.WindowByTime(105, 125)
	if !ok || start != 1 || end != 2 {
		t.Fatalf("client window (%d,%d,%v)", start, end, ok)
	}
	s2, e2, ok2 := node.WindowByTime(105, 125)
	if !ok2 || s2 != start || e2 != end {
		t.Fatal("node and client disagree on the window")
	}
	q := Query{StartBlock: start, EndBlock: end, Bool: And(Or("sedan")), Width: 4}
	parts, err := node.TimeWindow(q)
	if err != nil {
		t.Fatal(err)
	}
	results, err := client.Verify(q, parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results %d, want 2", len(results))
	}
	if _, _, ok := client.WindowByTime(500, 600); ok {
		t.Error("window beyond the chain should not resolve")
	}
}

func TestFacadeParallelSP(t *testing.T) {
	sys, err := NewSystem(Config{
		Preset: "toy", Index: IndexIntra, BitWidth: 4, Capacity: 512,
		Difficulty: 1, Seed: []byte("par"), SPWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	node := sys.NewNode(1)
	mine(t, node, 0, 3)
	client := syncedClient(t, sys, node)
	q := Query{StartBlock: 0, EndBlock: 2, Bool: And(Or("sedan")), Width: 4}
	parts, err := node.TimeWindow(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Verify(q, parts); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	// "conservative" was a preset once; it must now fail like any
	// unknown name rather than reach key generation.
	for _, preset := range []string{"nope", "conservative"} {
		if _, err := NewSystem(Config{Preset: preset, Seed: []byte("x"), Capacity: 64}); err == nil {
			t.Errorf("preset %q accepted", preset)
		}
	}
	if _, err := NewSystem(Config{Preset: "toy", Accumulator: "acc3"}); err == nil {
		t.Error("bad accumulator accepted")
	}
	sys, err := NewSystem(Config{Preset: "toy", Seed: []byte("x"), Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sys.Config()
	if cfg.Accumulator != "acc2" || cfg.Index != IndexBoth || cfg.BitWidth != 16 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if sys.Accumulator() == nil {
		t.Error("accumulator missing")
	}
}

// TestConfigIndexDefaulting covers the former silent-nil bug: setting
// only SkipListSize used to leave Index at the zero value (no indexes
// at all); the zero value now always means IndexBoth, and IndexNone is
// the explicit opt-out.
func TestConfigIndexDefaulting(t *testing.T) {
	sys, err := NewSystem(Config{Preset: "toy", SkipListSize: 2, Capacity: 64, Seed: []byte("d")})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Config().Index; got != IndexBoth {
		t.Errorf("SkipListSize-only config got Index %v, want IndexBoth", got)
	}
	sys, err = NewSystem(Config{Preset: "toy", Index: IndexNone, Capacity: 64, Seed: []byte("d")})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Config().Index; got != core.ModeNil {
		t.Errorf("IndexNone got Index %v, want the nil mode", got)
	}
	// An explicitly chosen mode is preserved.
	sys, err = NewSystem(Config{Preset: "toy", Index: IndexIntra, Capacity: 64, Seed: []byte("d")})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Config().Index; got != IndexIntra {
		t.Errorf("explicit IndexIntra got %v", got)
	}
}

// TestSubscribeConflictingOptions covers the former silent-ignore bug:
// the engine is created from the first Subscribe call's options, so a
// later call with different options (e.g. a lazy threshold after an
// eager one) cannot be honored — it must fail loudly instead of
// pretending.
func TestSubscribeConflictingOptions(t *testing.T) {
	sys := testSystem(t, "acc2", IndexBoth)
	node := sys.NewNode(1)
	q := Query{Bool: And(Or("sedan")), Width: 4}
	if _, err := node.Subscribe(q, SubscribeOptions{}); err != nil {
		t.Fatal(err)
	}
	// Same options: fine.
	if _, err := node.Subscribe(q, SubscribeOptions{}); err != nil {
		t.Fatalf("identical options rejected: %v", err)
	}
	// Thresholds 0 and 1 are one setting: publish every block.
	if _, err := node.Subscribe(q, SubscribeOptions{LazyThreshold: 1}); err != nil {
		t.Fatalf("equivalent options rejected: %v", err)
	}
	// A lazy threshold after an eager one: loud error.
	if _, err := node.Subscribe(q, SubscribeOptions{LazyThreshold: DefaultLazyThreshold}); err == nil {
		t.Fatal("conflicting LazyThreshold silently ignored")
	} else if !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestFacadeRemoteSubscription: the acceptance scenario over the
// facade — a light client connected over TCP registers a subscription
// and receives ≥3 publications across mined blocks, each locally
// verified before delivery.
func TestFacadeRemoteSubscription(t *testing.T) {
	sys := testSystem(t, "acc2", IndexBoth)
	for _, lazy := range []bool{false, true} {
		name := "eager"
		if lazy {
			name = "lazy"
		}
		t.Run(name, func(t *testing.T) {
			forEachShardCount(t, func(t *testing.T, shards int) {
				node := sys.NewNode(shards)
				defer node.Close()
				var opts SubscribeOptions
				if lazy {
					opts.LazyThreshold = DefaultLazyThreshold
				}
				sp, err := node.Serve("127.0.0.1:0", opts)
				if err != nil {
					t.Fatal(err)
				}
				defer sp.Close()

				client := sys.NewLightClient()
				conn, err := client.DialSP(sp.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				stream, err := conn.Subscribe(Query{Bool: And(Or("sedan")), Width: 4})
				if err != nil {
					t.Fatal(err)
				}

				const blocks = 10 // default band 8: crosses into a second shard
				mine(t, node, 0, blocks)
				// Every carBlock contains one sedan: eager and lazy modes
				// both publish each block promptly.
				total := 0
				for i := 0; i < blocks; i++ {
					select {
					case d := <-stream.C:
						if d.Err != nil {
							t.Fatalf("publication %d rejected: %v", i, d.Err)
						}
						total += len(d.Objects)
					case <-time.After(10 * time.Second):
						t.Fatalf("timed out waiting for publication %d", i)
					}
				}
				if total != blocks {
					t.Fatalf("verified results %d, want %d", total, blocks)
				}
				if err := stream.Close(); err != nil {
					t.Fatal(err)
				}

				// The same connection also answers verified one-shot
				// queries.
				res, err := conn.Query(context.Background(), Query{StartBlock: 0, EndBlock: blocks - 1, Bool: And(Or("sedan")), Width: 4})
				if err != nil {
					t.Fatal(err)
				}
				if len(res) != blocks {
					t.Fatalf("remote query results %d, want %d", len(res), blocks)
				}
			})
		})
	}
}

// TestFacadeServeLifecycle: closing a RemoteSP detaches it from the
// node — mining no longer fans out to it and Serve works again.
func TestFacadeServeLifecycle(t *testing.T) {
	sys := testSystem(t, "acc2", IndexBoth)
	forEachShardCount(t, func(t *testing.T, shards int) {
		node := sys.NewNode(shards)
		defer node.Close()
		sp, err := node.Serve("127.0.0.1:0", SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := node.Serve("127.0.0.1:0", SubscribeOptions{}); err == nil {
			t.Fatal("double Serve accepted")
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := node.Mine(carBlock(0), 0); err != nil {
			t.Fatalf("mining after Close failed: %v", err)
		}
		sp2, err := node.Serve("127.0.0.1:0", SubscribeOptions{})
		if err != nil {
			t.Fatalf("re-Serve after Close failed: %v", err)
		}
		defer sp2.Close()
	})
}

// TestFacadeProofStats checks that a node proves on one engine at every
// shard count: subscription and time-window traffic both land in one
// ProofStats snapshot, which is the engine's own, and a repeated
// window is served entirely from that engine's cache.
func TestFacadeProofStats(t *testing.T) {
	sys := testSystem(t, "acc2", IndexBoth)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			node := sys.NewNode(shards)
			if _, err := node.Subscribe(Query{Bool: And(Or("sedan"), Or("tesla")), Width: 4}, SubscribeOptions{}); err != nil {
				t.Fatal(err)
			}
			// Ten blocks span two default bands, so both shards own heights.
			mine(t, node, 0, 10)
			afterSubs := node.ProofStats()
			if afterSubs.Proofs == 0 {
				t.Fatalf("subscription processing did not reach the node's engine: %+v", afterSubs)
			}

			q := Query{StartBlock: 0, EndBlock: 9, Bool: And(Or("sedan")), Width: 4}
			parts, err := node.TimeWindow(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(parts) != 1 {
				t.Fatalf("%d parts, want one at every shard count", len(parts))
			}
			first := node.ProofStats()
			if first.CacheMisses <= afterSubs.CacheMisses || first.AggGroups == 0 {
				t.Errorf("time-window traffic did not reach the node's engine: %+v vs %+v", first, afterSubs)
			}
			if _, err := node.TimeWindow(q); err != nil {
				t.Fatal(err)
			}
			st := node.ProofStats()
			if eng := node.node.ProofEngine().Stats(); st != eng {
				t.Errorf("ProofStats %+v is not the node engine's %+v", st, eng)
			}
			if st.CacheMisses != first.CacheMisses || st.CacheHits <= first.CacheHits {
				t.Errorf("repeated window not served from cache: %+v then %+v", first, st)
			}
		})
	}
}

// TestFacadeOpenNode: a durable node survives a restart at every shard
// count — a fresh node over the same directory adopts the recorded
// topology and serves verifiable queries immediately (the paper's SP
// restarting without a rebuild), mining continues the persisted chain,
// and a conflicting explicit shard count is rejected.
func TestFacadeOpenNode(t *testing.T) {
	sys := testSystem(t, "acc2", IndexBoth)
	forEachShardCount(t, func(t *testing.T, shards int) {
		dir := t.TempDir()
		node, err := sys.OpenNode(dir, shards)
		if err != nil {
			t.Fatal(err)
		}
		const blocks = 10
		mine(t, node, 0, blocks)
		headers := node.Headers()
		if err := node.Close(); err != nil {
			t.Fatal(err)
		}

		re, err := sys.OpenNode(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if re.Shards() != shards {
			t.Fatalf("adopted %d shards, want %d", re.Shards(), shards)
		}
		if rec := re.Recovery(); rec == nil || rec.Blocks != blocks || len(rec.Shards) != shards {
			t.Fatalf("recovery %+v, want %d blocks over %d shards", rec, blocks, shards)
		}
		if got := re.Headers(); len(got) != len(headers) || got[blocks-1] != headers[blocks-1] {
			t.Fatalf("reopened chain diverges (%d headers, want %d)", len(got), len(headers))
		}
		client := syncedClient(t, sys, re)
		q := Query{StartBlock: 0, EndBlock: blocks - 1, Bool: And(Or("sedan")), Width: 4}
		parts, err := re.TimeWindow(q)
		if err != nil {
			t.Fatal(err)
		}
		results, err := client.Verify(q, parts)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != blocks {
			t.Fatalf("results %d, want %d", len(results), blocks)
		}
		// Mining continues the persisted chain through the same commit
		// pipeline.
		mine(t, re, blocks, blocks+1)
		if re.Height() != blocks+1 {
			t.Fatalf("post-reopen height %d, want %d", re.Height(), blocks+1)
		}

		if _, err := sys.OpenNode(dir, shards+1); err == nil {
			t.Fatal("conflicting shard count accepted")
		} else if !strings.Contains(err.Error(), "block store") {
			t.Fatalf("unexpected error: %v", err)
		}
	})
}

// TestFacadeFlatStoreMigration: a block log kept directly in the store
// directory (the layout before every store had a shard topology) is
// refused with an error naming the fix; after moving the log file into
// shard-000/ the same directory opens as a one-shard node and serves
// VOs byte-identical to the ones the flat log's node served.
func TestFacadeFlatStoreMigration(t *testing.T) {
	sys := testSystem(t, "acc2", IndexBoth)
	dir := t.TempDir()
	log, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := core.NewFullNodeOn(chain.Difficulty(sys.cfg.Difficulty), sys.builder(), log)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 10
	for i := 0; i < blocks; i++ {
		if _, err := legacy.MineBlock(carBlock(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{StartBlock: 1, EndBlock: blocks - 1, Bool: And(Or("sedan")), Width: 4}
	before, err := legacy.SP(true).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if err := legacy.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = sys.OpenNode(dir, 0)
	if err == nil {
		t.Fatal("flat log directory opened without migration")
	}
	for _, want := range []string{"flat", "mkdir", "mv", "shard-000"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error does not explain the fix (missing %q): %v", want, err)
		}
	}

	// Apply the fix the error names.
	if err := os.Mkdir(filepath.Join(dir, "shard-000"), 0o755); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.vseg"))
	for _, seg := range segs {
		if err := os.Rename(seg, filepath.Join(dir, "shard-000", filepath.Base(seg))); err != nil {
			t.Fatal(err)
		}
	}
	// A moved flat log is one shard; dealing it to more is refused.
	if _, err := sys.OpenNode(dir, 2); err == nil {
		t.Fatal("moved flat log opened as two shards")
	}
	node, err := sys.OpenNode(dir, 0)
	if err != nil {
		t.Fatalf("open after the move: %v", err)
	}
	defer node.Close()
	if node.Shards() != 1 || node.Height() != blocks {
		t.Fatalf("migrated node: %d shards, height %d; want 1 and %d", node.Shards(), node.Height(), blocks)
	}
	parts, err := node.TimeWindow(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || !bytes.Equal(core.EncodeVO(sys.acc, parts[0].VO), core.EncodeVO(sys.acc, before)) {
		t.Fatal("migrated store's VO is not byte-identical to the flat log's")
	}
	if _, err := syncedClient(t, sys, node).Verify(q, parts); err != nil {
		t.Fatal(err)
	}
}
