package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/shard"
	"github.com/vchain-go/vchain/internal/workload"
)

// MemoryFig measures the cost of bounding decoded-ADS residency: the
// same durable chain is reopened (a) resident — unbounded cache,
// warmed until every ADS is decoded in RAM — and (b) paged — a small
// LRU budget, bodies staying on disk until a query needs them. The
// heap columns are deltas over the just-closed baseline, so resident
// growth tracks chain length while the paged figure stays flat at the
// cache bound; the paged query column is a cold-cache full-window
// query, i.e. it pays every page-in, the worst case. Both paths end
// in a verified query, so the numbers never trade soundness for RAM.
func MemoryFig(o Options) (*Table, error) {
	o = o.withDefaults()
	pr := pairing.ByName(o.Preset)
	ds, err := workload.Generate(workload.Config{Kind: workload.FSQ, Blocks: o.Blocks, ObjectsPerBlock: o.ObjectsPerBlock, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	acc := newAccumulator(pr, ds, o, "acc2")
	queries := ds.RandomQueries(1, workload.QueryConfig{Seed: o.Seed + 13, RangeDims: 1})

	table := &Table{
		Title: "Memory (bounded ADS paging vs resident)",
		Note: fmt.Sprintf("4SQ, acc2/both, %d objects/block; heap is the delta after GC with the node warm; "+
			"paged query is cold-cache (every page-in paid); cache budget = max(2, blocks/8)",
			o.ObjectsPerBlock),
		Columns: []string{"blocks", "cache", "resident heap KB", "paged heap KB",
			"resident query ms", "paged query ms (cold)", "cold misses", "cached"},
	}
	for _, n := range []int{o.Blocks / 4, o.Blocks / 2, o.Blocks} {
		if n < 2 {
			continue
		}
		row, err := memoryRow(acc, ds, o, n, queries[0])
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}

// memoryRow mines one chain length to a log, then reopens it resident
// and paged, measuring heap residency and verified-query latency.
func memoryRow(acc accumulator.Accumulator, ds *workload.Dataset, o Options, n int, q core.Query) ([]string, error) {
	b := &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: o.SkipListSize, Width: ds.Width}
	dir, err := os.MkdirTemp("", "vchain-memory-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "store")

	node, _, err := shard.Open(0, b, storeDir, shard.Options{})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if _, err := node.MineBlock(ds.Blocks[i], int64(i)); err != nil {
			node.Close()
			return nil, fmt.Errorf("bench: mining block %d: %w", i, err)
		}
	}
	if err := node.Close(); err != nil {
		return nil, err
	}
	q.StartBlock, q.EndBlock = 0, n-1

	// Resident: unbounded cache, warmed by a full-window query so
	// every ADS body is decoded in RAM, as pre-tiering reopens were.
	base := heapNow()
	resident, _, err := shard.Open(0, b, storeDir, shard.Options{})
	if err != nil {
		return nil, err
	}
	if err := verifiedQuery(resident.FullNode, acc, q); err != nil {
		resident.Close()
		return nil, fmt.Errorf("bench: resident warmup query: %w", err)
	}
	residentHeap := heapDelta(base)
	t0 := time.Now()
	if err := verifiedQuery(resident.FullNode, acc, q); err != nil {
		resident.Close()
		return nil, fmt.Errorf("bench: resident query: %w", err)
	}
	residentQ := time.Since(t0)
	if err := resident.Close(); err != nil {
		return nil, err
	}

	// Paged: a small LRU budget; the timed query runs cold, paying a
	// verified page-in for every height it walks.
	cache := n / 8
	if cache < 2 {
		cache = 2
	}
	base = heapNow()
	paged, _, err := shard.Open(0, b, storeDir, shard.Options{ADSCacheBlocks: cache})
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	if err := verifiedQuery(paged.FullNode, acc, q); err != nil {
		paged.Close()
		return nil, fmt.Errorf("bench: paged cold query: %w", err)
	}
	pagedQ := time.Since(t0)
	pagedHeap := heapDelta(base)
	st := paged.ADSStats()
	if err := paged.Close(); err != nil {
		return nil, err
	}

	coldMiss := 0.0
	if st.Hits+st.Misses > 0 {
		coldMiss = float64(st.Misses) / float64(st.Hits+st.Misses)
	}
	return []string{
		fmt.Sprintf("%d", n),
		fmt.Sprintf("%d", cache),
		kb(int(residentHeap)), kb(int(pagedHeap)),
		ms(residentQ), ms(pagedQ),
		pct(coldMiss),
		fmt.Sprintf("%d", st.Entries),
	}, nil
}

// heapNow returns post-GC live heap bytes.
func heapNow() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapDelta returns live heap growth since base (0 if the heap
// shrank — GC noise, not residency).
func heapDelta(base uint64) uint64 {
	now := heapNow()
	if now < base {
		return 0
	}
	return now - base
}
