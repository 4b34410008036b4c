// Package workload synthesizes the three evaluation datasets of the
// vChain paper — Foursquare check-ins (4SQ), hourly weather (WX), and
// Ethereum transactions (ETH) — and the query workloads driven over
// them (§9).
//
// The real datasets are not redistributable, so seeded generators
// reproduce the *shape* that the evaluation depends on:
//
//	4SQ: 2-D location + ~2 keywords from a mid-size Zipf vocabulary,
//	     many objects per block, moderate inter-object similarity.
//	WX:  7 numeric attributes + ~2 description keywords from a small
//	     vocabulary, high inter-object similarity (weather repeats).
//	ETH: 1 numeric amount (log-normal) + 2 addresses from a large
//	     sparse vocabulary, few objects per block, low similarity.
//
// Sizes are scaled down so experiments run on a single laptop core;
// per-dataset defaults can be overridden through Config.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
)

// Kind names a dataset shape.
type Kind string

// The three paper datasets.
const (
	FSQ Kind = "4sq"
	WX  Kind = "wx"
	ETH Kind = "eth"
)

// Config controls generation.
type Config struct {
	// Kind selects the dataset shape.
	Kind Kind
	// Blocks is the number of blocks to generate.
	Blocks int
	// ObjectsPerBlock overrides the dataset default when > 0.
	ObjectsPerBlock int
	// Seed makes the stream reproducible.
	Seed int64
}

// Dataset is a generated object stream plus its schema description.
type Dataset struct {
	// Kind is the dataset shape.
	Kind Kind
	// Dims is the numeric dimensionality.
	Dims int
	// Width is the bit width of each numeric attribute.
	Width int
	// Blocks holds the generated objects, one slice per block.
	Blocks [][]chain.Object
	// Vocabulary is the keyword universe (for query generation).
	Vocabulary []string
	// BoolSize is the paper's default disjunctive Boolean fan-out for
	// this dataset (3 for 4SQ/WX, 9 for ETH).
	BoolSize int
	// DefaultSelectivity is the paper's default numeric selectivity
	// (0.1 for 4SQ/WX, 0.5 for ETH).
	DefaultSelectivity float64
}

type shape struct {
	dims, width, objsPerBlock int
	vocabSize, kwPerObj       int
	boolSize                  int
	defaultSel                float64
	zipfS                     float64
}

var shapes = map[Kind]shape{
	// Paper: ~34 records/30s block, 2 keywords each, 2-D coordinates.
	FSQ: {dims: 2, width: 8, objsPerBlock: 16, vocabSize: 600, kwPerObj: 2, boolSize: 3, defaultSel: 0.1, zipfS: 1.2},
	// Paper: 7 numeric attributes, 2 description keywords, ~29/block.
	WX: {dims: 7, width: 8, objsPerBlock: 12, vocabSize: 80, kwPerObj: 2, boolSize: 3, defaultSel: 0.1, zipfS: 1.05},
	// Paper: amount + sender/receiver addresses, ~12/block.
	ETH: {dims: 1, width: 8, objsPerBlock: 8, vocabSize: 4000, kwPerObj: 2, boolSize: 9, defaultSel: 0.5, zipfS: 1.3},
}

// Generate builds a dataset.
func Generate(cfg Config) (*Dataset, error) {
	sh, ok := shapes[cfg.Kind]
	if !ok {
		return nil, fmt.Errorf("workload: unknown dataset %q", cfg.Kind)
	}
	if cfg.Blocks <= 0 {
		return nil, fmt.Errorf("workload: Blocks must be positive")
	}
	objs := sh.objsPerBlock
	if cfg.ObjectsPerBlock > 0 {
		objs = cfg.ObjectsPerBlock
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	vocab := make([]string, sh.vocabSize)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("%s-kw%04d", cfg.Kind, i)
	}
	zipf := rand.NewZipf(rng, sh.zipfS, 1, uint64(sh.vocabSize-1))

	ds := &Dataset{
		Kind:               cfg.Kind,
		Dims:               sh.dims,
		Width:              sh.width,
		Vocabulary:         vocab,
		BoolSize:           sh.boolSize,
		DefaultSelectivity: sh.defaultSel,
	}
	max := int64(1)<<uint(sh.width) - 1
	id := chain.ObjectID(1)
	for b := 0; b < cfg.Blocks; b++ {
		blk := make([]chain.Object, objs)
		for i := range blk {
			v := make([]int64, sh.dims)
			for d := range v {
				switch cfg.Kind {
				case ETH:
					// Log-normal-ish transfer amounts skewed small.
					x := math.Exp(rng.NormFloat64()*1.2 + 2.5)
					v[d] = int64(x)
					if v[d] > max {
						v[d] = max
					}
				case WX:
					// Smooth attributes: mean-reverting around mid-scale.
					v[d] = int64(float64(max) * (0.5 + 0.18*rng.NormFloat64()))
					if v[d] < 0 {
						v[d] = 0
					}
					if v[d] > max {
						v[d] = max
					}
				default: // FSQ: uniform city grid
					v[d] = rng.Int63n(max + 1)
				}
			}
			kws := make([]string, 0, sh.kwPerObj)
			seen := map[string]bool{}
			for len(kws) < sh.kwPerObj {
				kw := vocab[int(zipf.Uint64())]
				if !seen[kw] {
					seen[kw] = true
					kws = append(kws, kw)
				}
			}
			blk[i] = chain.Object{ID: id, TS: int64(b), V: v, W: kws}
			id++
		}
		ds.Blocks = append(ds.Blocks, blk)
	}
	return ds, nil
}

// QueryConfig controls query generation.
type QueryConfig struct {
	// Selectivity is the per-dimension fraction of the numeric space
	// the range predicate covers (the paper's 10%–50% axis). Zero means
	// the dataset default.
	Selectivity float64
	// BoolSize is the disjunctive fan-out of the Boolean clause; zero
	// means the dataset default.
	BoolSize int
	// RangeDims limits the range predicate to the first n dimensions
	// (the paper uses 2 of WX's 7); zero means all.
	RangeDims int
	// SharedClausePool, when positive, draws every query's Boolean
	// clause from a pool of that many distinct clauses. Subscription
	// workloads use this: the premise of the IP-tree (§7.1) is that
	// many registered queries share conditions and therefore mismatch
	// for the same reason.
	SharedClausePool int
	// Seed drives the query RNG.
	Seed int64
}

// RandomQueries draws n random queries matching the paper's workload:
// a range predicate of the given selectivity plus one disjunctive
// Boolean clause of popular keywords.
func (d *Dataset) RandomQueries(n int, qc QueryConfig) []core.Query {
	sel := qc.Selectivity
	if sel <= 0 {
		sel = d.DefaultSelectivity
	}
	bs := qc.BoolSize
	if bs <= 0 {
		bs = d.BoolSize
	}
	dims := qc.RangeDims
	if dims <= 0 || dims > d.Dims {
		dims = d.Dims
	}
	rng := rand.New(rand.NewSource(qc.Seed))
	max := int64(1)<<uint(d.Width) - 1
	span := int64(float64(max+1) * sel)
	if span < 1 {
		span = 1
	}
	drawClause := func() core.Clause {
		kws := make([]string, 0, bs)
		seen := map[string]bool{}
		for len(kws) < bs && len(seen) < len(d.Vocabulary) {
			// Zipf-weighted popular keywords make clauses that
			// actually select data.
			kw := d.Vocabulary[rng.Intn(1+rng.Intn(len(d.Vocabulary)))]
			if !seen[kw] {
				seen[kw] = true
				kws = append(kws, kw)
			}
		}
		return core.KeywordClause(kws...)
	}
	var pool []core.Clause
	if qc.SharedClausePool > 0 {
		pool = make([]core.Clause, qc.SharedClausePool)
		for i := range pool {
			pool[i] = drawClause()
		}
	}
	out := make([]core.Query, n)
	for i := range out {
		lo := make([]int64, dims)
		hi := make([]int64, dims)
		for dim := 0; dim < dims; dim++ {
			start := rng.Int63n(max - span + 2)
			lo[dim] = start
			hi[dim] = start + span - 1
			if hi[dim] > max {
				hi[dim] = max
			}
		}
		clause := drawClause()
		if pool != nil {
			clause = pool[rng.Intn(len(pool))]
		}
		out[i] = core.Query{
			Range: &core.RangeCond{Lo: lo, Hi: hi},
			Bool:  core.CNF{clause},
			Width: d.Width,
		}
	}
	return out
}
