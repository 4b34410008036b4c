// Benchmarks regenerating the vChain paper's evaluation, one per table
// and figure (§9 + Appendix D). Each benchmark measures the experiment's
// inner operation (one block built, one query answered, one block of
// subscriptions processed) so `go test -bench` output can be compared
// across schemes the same way the paper's plots are: who wins and by
// what factor. Full parameter sweeps — the actual table/figure series —
// are produced by `go run ./cmd/vchain-bench -exp <name>`.
//
// Mapping (see DESIGN.md §4 for details):
//
//	Table 1    → BenchmarkTable1SetupCost
//	Fig. 9–11  → BenchmarkTimeWindowQuery, BenchmarkTimeWindowVerify
//	Fig. 12    → BenchmarkSubscriptionIPTree
//	Fig. 13–15 → BenchmarkSubscriptionPeriod
//	Fig. 16    → BenchmarkMHTComparison
//	Fig. 17–19 → BenchmarkSelectivity
//	Fig. 20–22 → BenchmarkSkipListSize
package vchain_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/mhtree"
	"github.com/vchain-go/vchain/internal/multiset"
	"github.com/vchain-go/vchain/internal/proofs"
	"github.com/vchain-go/vchain/internal/subscribe"
	"github.com/vchain-go/vchain/internal/workload"
)

const (
	benchBlocks  = 16
	benchObjs    = 4
	benchSkip    = 2
	benchQueries = 2
)

// Shared fixtures: keygen and chain building are expensive, so each
// (dataset, acc, mode) configuration is built once per process.
var (
	fixtureMu sync.Mutex
	fixtures  = map[string]*benchFixture{}
	accsByKey = map[string]accumulator.Accumulator{}
)

type benchFixture struct {
	ds    *workload.Dataset
	acc   accumulator.Accumulator
	node  *core.FullNode
	light *chain.LightStore
}

func benchAcc(kind workload.Kind, accName string) accumulator.Accumulator {
	key := string(kind) + "/" + accName
	if acc, ok := accsByKey[key]; ok {
		return acc
	}
	pr := pairing.Toy()
	var acc accumulator.Accumulator
	if accName == "acc1" {
		acc = accumulator.KeyGenCon1Deterministic(pr, 4096, []byte(key))
	} else {
		q := 8192
		acc = accumulator.KeyGenCon2Deterministic(pr, q, accumulator.NewDictEncoder(q), []byte(key))
	}
	accsByKey[key] = acc
	return acc
}

func fixture(b *testing.B, kind workload.Kind, accName string, mode core.IndexMode, skipSize int) *benchFixture {
	b.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	key := fmt.Sprintf("%s/%s/%v/%d", kind, accName, mode, skipSize)
	if f, ok := fixtures[key]; ok {
		return f
	}
	ds, err := workload.Generate(workload.Config{Kind: kind, Blocks: benchBlocks, ObjectsPerBlock: benchObjs, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	acc := benchAcc(kind, accName)
	node := core.NewFullNode(0, &core.Builder{Acc: acc, Mode: mode, SkipSize: skipSize, Width: ds.Width})
	for i, blk := range ds.Blocks {
		if _, err := node.MineBlock(blk, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	light := chain.NewLightStore(0)
	if err := light.Sync(node.Store.Headers()); err != nil {
		b.Fatal(err)
	}
	f := &benchFixture{ds: ds, acc: acc, node: node, light: light}
	fixtures[key] = f
	return f
}

func benchQuery(f *benchFixture, seed int64) core.Query {
	q := f.ds.RandomQueries(1, workload.QueryConfig{Seed: seed})[0]
	q.StartBlock = 0
	q.EndBlock = f.node.Height() - 1
	return q
}

// BenchmarkTable1SetupCost measures per-block ADS construction (the T
// column of Table 1) for every dataset × index × accumulator.
func BenchmarkTable1SetupCost(b *testing.B) {
	for _, kind := range []workload.Kind{workload.FSQ, workload.WX, workload.ETH} {
		for _, accName := range []string{"acc1", "acc2"} {
			for _, mode := range []core.IndexMode{core.ModeNil, core.ModeIntra, core.ModeBoth} {
				name := fmt.Sprintf("%s/%s/%s", kind, accName, mode)
				b.Run(name, func(b *testing.B) {
					skip := 0
					if mode == core.ModeBoth {
						skip = benchSkip
					}
					f := fixture(b, kind, accName, mode, skip)
					builder := &core.Builder{Acc: f.acc, Mode: mode, SkipSize: skip, Width: f.ds.Width}
					objs := f.ds.Blocks[0]
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						// Rebuild the tip block's ADS against the live chain.
						if _, err := builder.BuildBlock(f.node.Height()-1, objs, f.node); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkTimeWindowQuery measures SP CPU per query (Figs. 9–11, left
// panels) for the six schemes on each dataset.
func BenchmarkTimeWindowQuery(b *testing.B) {
	for _, kind := range []workload.Kind{workload.FSQ, workload.WX, workload.ETH} {
		for _, accName := range []string{"acc1", "acc2"} {
			for _, mode := range []core.IndexMode{core.ModeNil, core.ModeIntra, core.ModeBoth} {
				name := fmt.Sprintf("%s/%s/%s", kind, accName, mode)
				b.Run(name, func(b *testing.B) {
					skip := 0
					if mode == core.ModeBoth {
						skip = benchSkip
					}
					f := fixture(b, kind, accName, mode, skip)
					q := benchQuery(f, 7)
					sp := f.node.SP(false)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := sp.TimeWindowQuery(context.Background(), q); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkTimeWindowVerify measures user CPU per query (Figs. 9–11,
// middle panels) and reports the VO size (right panels) as a metric.
func BenchmarkTimeWindowVerify(b *testing.B) {
	for _, accName := range []string{"acc1", "acc2"} {
		for _, mode := range []core.IndexMode{core.ModeIntra, core.ModeBoth} {
			name := fmt.Sprintf("%s/%s/%s", workload.FSQ, accName, mode)
			b.Run(name, func(b *testing.B) {
				skip := 0
				if mode == core.ModeBoth {
					skip = benchSkip
				}
				f := fixture(b, workload.FSQ, accName, mode, skip)
				q := benchQuery(f, 7)
				vo, err := f.node.SP(false).TimeWindowQuery(context.Background(), q)
				if err != nil {
					b.Fatal(err)
				}
				ver := &core.Verifier{Acc: f.acc, Light: f.light}
				b.ReportMetric(float64(vo.SizeBytes(f.acc)), "VO-bytes")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ver.VerifyTimeWindow(q, vo); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOnlineBatchVerification isolates §6.3: acc2 with and without
// batched mismatch proofs (the mechanism behind acc2's flat user CPU in
// Figs. 9–11).
func BenchmarkOnlineBatchVerification(b *testing.B) {
	f := fixture(b, workload.FSQ, "acc2", core.ModeIntra, 0)
	q := benchQuery(f, 7)
	for _, batched := range []bool{false, true} {
		name := "individual"
		if batched {
			name = "batched"
		}
		b.Run(name, func(b *testing.B) {
			vo, err := f.node.SP(batched).TimeWindowQuery(context.Background(), q)
			if err != nil {
				b.Fatal(err)
			}
			ver := &core.Verifier{Acc: f.acc, Light: f.light}
			b.ReportMetric(float64(vo.SizeBytes(f.acc)), "VO-bytes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ver.VerifyTimeWindow(q, vo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSubscriptionIPTree measures per-block subscription
// processing with many registered queries, with and without clause
// sharing, the IP-tree's BCIF grouping (Fig. 12).
func BenchmarkSubscriptionIPTree(b *testing.B) {
	f := fixture(b, workload.FSQ, "acc2", core.ModeBoth, benchSkip)
	queries := f.ds.RandomQueries(8, workload.QueryConfig{Seed: 13})
	for _, useIP := range []bool{false, true} {
		name := "nip"
		if useIP {
			name = "ip"
		}
		b.Run(name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := subscribe.NewEngine(f.acc, subscribe.Options{
					UseIPTree: useIP, Proofs: proofs.New(f.acc, proofs.Options{}),
				})
				for _, q := range queries {
					if _, err := eng.Register(q); err != nil {
						b.Fatal(err)
					}
				}
				for h := 0; h < 4; h++ {
					ads, err := f.node.ADSAt(h)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := eng.ProcessBlock(ads, f.node); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSubscriptionPeriod measures the realtime vs lazy schemes of
// Figs. 13–15 over a fixed period.
func BenchmarkSubscriptionPeriod(b *testing.B) {
	for _, scheme := range []struct {
		name      string
		accName   string
		threshold int
	}{
		{"realtime-acc1", "acc1", 0},
		{"realtime-acc2", "acc2", 0},
		{"lazy-acc2", "acc2", subscribe.DefaultLazyThreshold},
	} {
		b.Run(scheme.name, func(b *testing.B) {
			f := fixture(b, workload.ETH, scheme.accName, core.ModeBoth, benchSkip)
			queries := f.ds.RandomQueries(benchQueries, workload.QueryConfig{Seed: 17})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := subscribe.NewEngine(f.acc, subscribe.Options{
					LazyThreshold: scheme.threshold, UseIPTree: true, Proofs: proofs.New(f.acc, proofs.Options{}),
				})
				ids := make([]int, len(queries))
				for j, q := range queries {
					id, err := eng.Register(q)
					if err != nil {
						b.Fatal(err)
					}
					ids[j] = id
				}
				for h := 0; h < 8; h++ {
					ads, err := f.node.ADSAt(h)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := eng.ProcessBlock(ads, f.node); err != nil {
						b.Fatal(err)
					}
				}
				for _, id := range ids {
					eng.Deregister(id)
				}
			}
		})
	}
}

// BenchmarkMHTComparison contrasts accumulator ADS construction with
// the exponential multi-attribute MHT baseline (Fig. 16).
func BenchmarkMHTComparison(b *testing.B) {
	pr := pairing.Toy()
	for _, dim := range []int{1, 3, 5, 7} {
		rows := make([][]int64, benchObjs)
		objs := make([]chain.Object, benchObjs)
		for i := range rows {
			rows[i] = make([]int64, dim)
			for d := range rows[i] {
				rows[i][d] = int64((i*31 + d*17) % 256)
			}
			objs[i] = chain.Object{ID: chain.ObjectID(i + 1), TS: 1, V: rows[i]}
		}
		b.Run(fmt.Sprintf("acc2/dim=%d", dim), func(b *testing.B) {
			acc := accumulator.KeyGenCon2Deterministic(pr, 8192, accumulator.NewDictEncoder(8192), []byte("mht"))
			builder := &core.Builder{Acc: acc, Mode: core.ModeIntra, Width: 8}
			node := core.NewFullNode(0, builder)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := builder.BuildBlock(0, objs, node); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("mht/dim=%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mhtree.BuildMultiAttr(rows)
			}
		})
	}
}

// BenchmarkSelectivity sweeps the range selectivity (Figs. 17–19).
func BenchmarkSelectivity(b *testing.B) {
	f := fixture(b, workload.ETH, "acc2", core.ModeBoth, benchSkip)
	for _, sel := range []float64{0.1, 0.3, 0.5} {
		b.Run(fmt.Sprintf("sel=%.0f%%", sel*100), func(b *testing.B) {
			q := f.ds.RandomQueries(1, workload.QueryConfig{Selectivity: sel, Seed: 23})[0]
			q.StartBlock, q.EndBlock = 0, f.node.Height()-1
			sp := f.node.SP(false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sp.TimeWindowQuery(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSkipListSize sweeps the skip-list size (Figs. 20–22).
func BenchmarkSkipListSize(b *testing.B) {
	for _, size := range []int{0, 1, 3} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			mode := core.ModeBoth
			if size == 0 {
				mode = core.ModeIntra
			}
			f := fixture(b, workload.ETH, "acc2", mode, size)
			q := benchQuery(f, 29)
			sp := f.node.SP(false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sp.TimeWindowQuery(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusteringAblation quantifies the Alg. 2 Jaccard clustering
// heuristic (a DESIGN.md design choice): query cost over an index built
// with clustering vs positional pairing.
func BenchmarkClusteringAblation(b *testing.B) {
	acc := benchAcc(workload.FSQ, "acc2")
	ds, err := workload.Generate(workload.Config{Kind: workload.FSQ, Blocks: 8, ObjectsPerBlock: 6, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	for _, noCluster := range []bool{false, true} {
		name := "jaccard"
		if noCluster {
			name = "positional"
		}
		b.Run(name, func(b *testing.B) {
			builder := &core.Builder{Acc: acc, Mode: core.ModeIntra, Width: ds.Width, NoCluster: noCluster}
			node := core.NewFullNode(0, builder)
			for i, blk := range ds.Blocks {
				if _, err := node.MineBlock(blk, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
			q := ds.RandomQueries(1, workload.QueryConfig{Seed: 31})[0]
			q.StartBlock, q.EndBlock = 0, node.Height()-1
			sp := node.SP(false)
			vo, err := sp.TimeWindowQuery(context.Background(), q)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(vo.SizeBytes(acc)), "VO-bytes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sp.TimeWindowQuery(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSPParallelism measures the proof-worker pool (the paper's SP
// runs 24 threads). Each engine runs uncached, so every iteration proves.
func BenchmarkSPParallelism(b *testing.B) {
	f := fixture(b, workload.FSQ, "acc2", core.ModeIntra, 0)
	q := benchQuery(f, 7)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := proofs.New(f.acc, proofs.Options{Workers: workers, CacheSize: -1})
			sp := &core.SP{Acc: f.acc, View: f.node, Engine: eng}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sp.TimeWindowQuery(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAccumulatorPrimitives profiles the cryptographic core that
// every experiment above is built from.
func BenchmarkAccumulatorPrimitives(b *testing.B) {
	pr := pairing.Toy()
	acc1 := accumulator.KeyGenCon1Deterministic(pr, 256, []byte("prim"))
	acc2 := accumulator.KeyGenCon2Deterministic(pr, 512, accumulator.HashEncoder{Q: 512}, []byte("prim"))
	w := multiset.New("sedan", "benz", "van", "audi", "bmw", "suv", "coupe", "truck")
	clause := multiset.New("tesla")
	for _, tc := range []struct {
		name string
		acc  accumulator.Accumulator
	}{{"acc1", acc1}, {"acc2", acc2}} {
		b.Run(tc.name+"/Setup", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tc.acc.Setup(w); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/ProveDisjoint", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tc.acc.ProveDisjoint(w, clause); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/VerifyDisjoint", func(b *testing.B) {
			aw, _ := tc.acc.Setup(w)
			ac, _ := tc.acc.Setup(clause)
			pf, err := tc.acc.ProveDisjoint(w, clause)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !tc.acc.VerifyDisjoint(aw, ac, pf) {
					b.Fatal("proof rejected")
				}
			}
		})
	}
}
