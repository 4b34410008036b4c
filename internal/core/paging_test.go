package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/storage"
)

// TestPagedReopenServesIdenticalVO checks the tiering acceptance
// criterion: a reopened node whose decoded-ADS residency is bounded to
// a couple of blocks serves the same verified window VO as the warm
// node that mined the chain. (Structural equality, not byte equality:
// gob's map encoding order is nondeterministic.)
func TestPagedReopenServesIdenticalVO(t *testing.T) {
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth}
	dir := t.TempDir()

	warm := openTestNode(t, b, dir)
	const blocks = 10
	for i := 0; i < blocks; i++ {
		if _, err := warm.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	q := sedanBenzQuery(0, blocks-1)
	warmVO, err := warm.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	headers := warm.Store.Headers()
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}

	paged := openTestNode(t, b, dir, WithADSCache(2))
	pagedVO, err := paged.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmVO, pagedVO) {
		t.Fatal("paged node's VO differs from the warm node's")
	}

	light := chain.NewLightStore(0)
	if err := light.Sync(headers); err != nil {
		t.Fatal(err)
	}
	results, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, pagedVO)
	if err != nil {
		t.Fatalf("paged node's VO rejected: %v", err)
	}
	if len(results) != blocks {
		t.Fatalf("results %d, want %d", len(results), blocks)
	}
	st := paged.ADSStats()
	if st.Entries > 2 {
		t.Fatalf("cache holds %d entries, budget is 2", st.Entries)
	}
	if st.Decodes == 0 {
		t.Fatal("paged query decoded nothing — cache was not actually cold")
	}
}

// TestPagedConcurrentQueriesAndMining hammers a tiny-cache paged node
// with window queries while a miner extends the chain — run with
// -race. Eviction churn is forced (budget 2, chain 8+) and every
// query must still verify.
func TestPagedConcurrentQueriesAndMining(t *testing.T) {
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth}
	dir := t.TempDir()

	seed := openTestNode(t, b, dir)
	const blocks = 8
	for i := 0; i < blocks; i++ {
		if _, err := seed.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	node := openTestNode(t, b, dir, WithADSCache(2))
	light := chain.NewLightStore(0)
	if err := light.Sync(node.Store.Headers()); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				// Rotate sub-windows so goroutines contend for
				// different residency sets.
				start := (g + i) % (blocks / 2)
				q := sedanBenzQuery(start, start+blocks/2-1)
				vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
				if err != nil {
					t.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
				if _, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo); err != nil {
					t.Errorf("goroutine %d query %d verification: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := node.MineBlock(carObjects(uint64((blocks+i)*10)), int64(1000+blocks+i)); err != nil {
				t.Errorf("mining under query load: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	st := node.ADSStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 2-block budget on a %d+ block chain: %+v", blocks, st)
	}
	if st.Entries > 2 {
		t.Fatalf("cache holds %d entries, budget is 2", st.Entries)
	}
}

// TestPagedSingleFlightDecodes reopens with an unbounded cache and
// fires many identical window queries at once: single-flight page-ins
// mean each height decodes at most once, no matter how many walkers
// ask for it concurrently.
func TestPagedSingleFlightDecodes(t *testing.T) {
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth}
	dir := t.TempDir()

	seed := openTestNode(t, b, dir)
	const blocks = 6
	for i := 0; i < blocks; i++ {
		if _, err := seed.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	node := openTestNode(t, b, dir) // unbounded: entries never evict
	q := sedanBenzQuery(0, blocks-1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := node.SP(false).TimeWindowQuery(context.Background(), q); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	st := node.ADSStats()
	if st.Decodes > int64(blocks) {
		t.Fatalf("%d decodes for %d distinct heights — single-flight failed: %+v", st.Decodes, blocks, st)
	}
	if st.Decodes == 0 {
		t.Fatal("no decodes recorded — queries did not page in")
	}
}

// TestMemoryBoundedReopenSmoke is the CI memory smoke: mine a long
// toy chain to a log, reopen with a small ADS cache, and check the
// heap stays under a fixed budget while a verified query succeeds.
// The point is the asymptote — decoded-ADS residency no longer scales
// with chain length, only with the cache bound.
func TestMemoryBoundedReopenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long chain; skipped in -short")
	}
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth}
	dir := t.TempDir()

	// One tiny object per block keeps mining cheap while the chain
	// gets long enough that unbounded residency would dwarf the cache.
	const blocks = 2000
	seed := openTestNode(t, b, dir)
	for i := 0; i < blocks; i++ {
		objs := []chain.Object{{
			ID: chain.ObjectID(i + 1), TS: int64(1000 + i),
			V: []int64{int64(i % 8)}, W: []string{"sedan", "benz"},
		}}
		if _, err := seed.MineBlock(objs, int64(1000+i)); err != nil {
			t.Fatalf("mining block %d: %v", i, err)
		}
	}
	headers := seed.Store.Headers()
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	const cacheBlocks = 16
	node := openTestNode(t, b, dir, WithADSCache(cacheBlocks))
	if node.Height() != blocks {
		t.Fatalf("reopened height %d, want %d", node.Height(), blocks)
	}

	// Serve a verified query over a recent window: pages in a working
	// set, evicting as it goes.
	q := sedanBenzQuery(blocks-64, blocks-1)
	vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	light := chain.NewLightStore(0)
	if err := light.Sync(headers); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo); err != nil {
		t.Fatalf("bounded-cache node's VO rejected: %v", err)
	}

	st := node.ADSStats()
	if st.Entries > cacheBlocks {
		t.Fatalf("cache holds %d decoded ADSs, budget is %d", st.Entries, cacheBlocks)
	}
	if st.Evictions == 0 {
		t.Fatalf("64-block window under a %d-block budget evicted nothing: %+v", cacheBlocks, st)
	}

	// Fixed heap budget: headers + skip index + a 16-block decoded
	// working set fit comfortably; 2000 resident ADSs would not.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const heapBudget = 64 << 20
	if ms.HeapAlloc > heapBudget {
		t.Fatalf("HeapAlloc %d MiB over the %d MiB budget (ADS residency unbounded?)",
			ms.HeapAlloc>>20, int64(heapBudget)>>20)
	}
	t.Logf("HeapAlloc %d MiB for a %d-block chain (%s)", ms.HeapAlloc>>20, blocks,
		fmt.Sprintf("%d cached ADSs", st.Entries))
}

// TestSkipSpansFromEvictedBlocks derives skip spans on a reopened node
// whose decoded-ADS cache holds one block, so every covered block must
// page in (evicting the one before it): the spans equal the warm
// node's, and a query answered by skips is the warm node's VO and
// verifies.
func TestSkipSpansFromEvictedBlocks(t *testing.T) {
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth}
	dir := t.TempDir()
	const blocks = 12
	warm := openTestNode(t, b, dir)
	for i := 0; i < blocks; i++ {
		if _, err := warm.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	top := mustADS(t, warm, blocks-1)
	want, err := top.skipSpans(warm, len(top.Skips)-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{StartBlock: 0, EndBlock: blocks - 1, Bool: CNF{KeywordClause("tesla")}, Width: testWidth}
	warmVO, err := warm.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if firstSkip(warmVO) == nil {
		t.Fatal("query took no skip")
	}
	headers := warm.Store.Headers()
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}

	paged := openTestNode(t, b, dir, WithADSCache(1))
	ads := mustADS(t, paged, blocks-1)
	before := paged.ADSStats().Decodes
	got, err := ads.skipSpans(paged, len(ads.Skips)-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The distance-8 span covers heights 4..11: seven page-ins besides
	// the block that holds the skips.
	if decodes := paged.ADSStats().Decodes - before; decodes != 7 {
		t.Fatalf("deriving the spans decoded %d blocks, want 7", decodes)
	}
	if len(got) != len(want) {
		t.Fatalf("%d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("span %d differs from the warm node's", ads.Skips[i].Distance)
		}
	}

	pagedVO, err := paged.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmVO, pagedVO) {
		t.Fatal("paged node's skip VO differs from the warm node's")
	}
	light := chain.NewLightStore(0)
	if err := light.Sync(headers); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, pagedVO); err != nil {
		t.Fatalf("paged node's skip VO rejected: %v", err)
	}
	if st := paged.ADSStats(); st.Entries > 1 {
		t.Fatalf("cache holds %d entries, budget is 1", st.Entries)
	}
}

// TestPagedRejectsTamperedRecord rewrites one record of a backend that
// keeps no checksums, re-encoded so that it decodes cleanly: the one
// stored copy of a leaf's object, which BlockAt serves too, or a
// leaf's digest changes under the mined header. The reopened node must
// refuse that ADS at page-in and still serve the untouched heights.
func TestPagedRejectsTamperedRecord(t *testing.T) {
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth}
	mem := storage.NewMemory()
	node, err := NewFullNodeOn(0, b, mem)
	if err != nil {
		t.Fatal(err)
	}
	const blocks, target = 3, 1
	for i := 0; i < blocks; i++ {
		if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	leaves := func(ads *BlockADS) (first, last *IntraNode) {
		first, last = ads.Root, ads.Root
		for !first.IsLeaf() {
			first = first.Left
		}
		for !last.IsLeaf() {
			last = last.Right
		}
		return first, last
	}
	cases := map[string]func(blk *chain.Block, ads *BlockADS){
		"leaf object": func(blk *chain.Block, ads *BlockADS) {
			l, _ := leaves(ads)
			k := slices.IndexFunc(blk.Objects, func(o chain.Object) bool { return sameObject(&o, l.Obj) })
			blk.Objects[k].W = []string{"tampered"}
			l.Obj.W = []string{"tampered"}
		},
		"leaf digest": func(_ *chain.Block, ads *BlockADS) {
			l, r := leaves(ads)
			if bytes.Equal(acc.AccBytes(l.Digest), acc.AccBytes(r.Digest)) {
				t.Fatal("fixture leaves share a digest")
			}
			l.Digest, r.Digest = r.Digest, l.Digest
		},
	}
	for name, tamper := range cases {
		t.Run(name, func(t *testing.T) {
			tampered := storage.NewMemory()
			for h := 0; h < mem.Len(); h++ {
				rec, err := mem.Read(h)
				if err != nil {
					t.Fatal(err)
				}
				if h == target {
					blk, err := decodeRecordBlock(rec)
					if err != nil {
						t.Fatal(err)
					}
					ads, err := DecodeChainRecordADS(rec)
					if err != nil {
						t.Fatal(err)
					}
					tamper(blk, ads)
					if rec, err = EncodeChainRecord(blk, ads); err != nil {
						t.Fatal(err)
					}
				}
				if err := tampered.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			reopened, err := NewFullNodeOn(0, b, tampered)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reopened.ADSAt(target); err == nil {
				t.Fatal("tampered ADS paged in")
			}
			for h := 0; h < blocks; h++ {
				if h != target {
					mustADS(t, reopened, h)
				}
			}
		})
	}
}

// TestEphemeralNodeKeepsEveryADS: an in-memory node keeps its ADSs in
// the same LRU as a durable one, so queries count as hits, and an
// ephemeral slot ignores the cache bound — its LRU holds the only copy
// of each ADS, so a one-entry budget evicts nothing.
func TestEphemeralNodeKeepsEveryADS(t *testing.T) {
	b := &Builder{Acc: testAccs(t)["acc2"], Mode: ModeBoth, SkipSize: 2, Width: testWidth}
	node, err := NewFullNodeOn(0, b, storage.NewNull(), WithADSCache(1))
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 8
	for i := 0; i < blocks; i++ {
		if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := node.SP(false).TimeWindowQuery(context.Background(), sedanBenzQuery(0, blocks-1)); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < blocks; h++ {
		if ads := mustADS(t, node, h); ads.Height != h {
			t.Fatalf("ADSAt(%d) holds height %d", h, ads.Height)
		}
	}
	st := node.ADSStats()
	if st.Hits == 0 {
		t.Error("an in-memory node's queries counted no ADS hits")
	}
	if st.Evictions != 0 || st.Misses != 0 || st.Entries != blocks {
		t.Errorf("stats %+v, want %d entries and no miss or eviction", st, blocks)
	}
}
