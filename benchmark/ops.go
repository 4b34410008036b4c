package main

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/workload"
)

// queryStream is the longest list of distinct queries a run can use up;
// a closed loop takes them in order until its time is over.
const queryStream = 4096

// The query shape is the paper's default for 4SQ: a range over both
// dimensions at selectivity 0.1 and one disjunctive 3-keyword clause.
const (
	rangeSelectivity = 0.1
	clauseKeywords   = 3
	// wideSelectivity is the range of every fourth query, which has no
	// keyword clause. The default shape selects almost nothing on a
	// chain this short; a tenth of the space does, so these queries
	// carry objects through the result path of the SP, the codecs and
	// the verifier.
	wideSelectivity = 0.3
	// headKeywords is how many of the most frequent vocabulary words a
	// clause never uses. The 4SQ vocabulary is Zipf-distributed: one of
	// its first few words is in almost every block, so whether a seed
	// happens to draw one decides how much of the chain a clause
	// matches, and runs on different seeds would not be comparable.
	headKeywords = 8
)

// genDataset makes the 4SQ-shaped object stream.
func genDataset(cfg config, seed int64, blocks int) (*workload.Dataset, error) {
	return workload.Generate(workload.Config{
		Kind: workload.FSQ, Blocks: blocks, ObjectsPerBlock: cfg.ObjectsPerBlock, Seed: seed,
	})
}

// genInputs makes everything workload name feeds the program, from the
// seed alone: the blocks, and the time-window queries or subscriptions
// the workload uses (n queries at most).
func genInputs(cfg config, name string, seed int64, n int) (ds *workload.Dataset, queries, subs []core.Query, err error) {
	blocks := cfg.ChainBlocks
	if name == "mine_durable" || name == "sub_stream" {
		blocks = cfg.MineBlocks // more than a run can mine
	}
	if ds, err = genDataset(cfg, seed, blocks); err != nil {
		return nil, nil, nil, err
	}
	switch name {
	case "mine_durable":
	case "sub_stream":
		subs = genSubs(cfg, ds, seed)
	default:
		queries = genQueries(cfg, ds, seed, n, cfg.ChainBlocks)
	}
	return ds, queries, subs, nil
}

// queryGen draws query conditions over a dataset's schema.
type queryGen struct {
	ds  *workload.Dataset
	rng *rand.Rand
}

// rangeCond draws a hyper-rectangle covering sel of every dimension.
func (g queryGen) rangeCond(sel float64) *core.RangeCond {
	size := int64(1) << uint(g.ds.Width)
	span := max(int64(float64(size)*sel), 1)
	lo, hi := make([]int64, g.ds.Dims), make([]int64, g.ds.Dims)
	for d := range lo {
		lo[d] = g.rng.Int63n(size - span + 1)
		hi[d] = lo[d] + span - 1
	}
	return &core.RangeCond{Lo: lo, Hi: hi}
}

// clause draws distinct keywords, frequent ones more often, as
// workload.RandomQueries does, but never one of the head words.
func (g queryGen) clause() core.Clause {
	tail := g.ds.Vocabulary[headKeywords:]
	seen := map[string]bool{}
	var kws []string
	for len(kws) < clauseKeywords {
		kw := tail[g.rng.Intn(1+g.rng.Intn(len(tail)))]
		if !seen[kw] {
			seen[kw] = true
			kws = append(kws, kw)
		}
	}
	return core.KeywordClause(kws...)
}

// genQueries draws n distinct time-window queries over random windows
// of cfg.WindowBlocks blocks within the first chainLen blocks.
func genQueries(cfg config, ds *workload.Dataset, seed int64, n, chainLen int) []core.Query {
	g := queryGen{ds, rand.New(rand.NewSource(seed + 1))}
	span := min(cfg.WindowBlocks, chainLen)
	qs := make([]core.Query, n)
	for i := range qs {
		start := g.rng.Intn(chainLen - span + 1)
		qs[i] = core.Query{StartBlock: start, EndBlock: start + span - 1, Width: ds.Width}
		if i%4 == 3 {
			qs[i].Range = g.rangeCond(wideSelectivity)
		} else {
			qs[i].Range = g.rangeCond(rangeSelectivity)
			qs[i].Bool = core.CNF{g.clause()}
		}
	}
	return qs
}

// genSubs draws sub_stream's continuous queries: every one has its own
// range and a clause from a small shared pool, which is what the
// IP-tree exploits.
func genSubs(cfg config, ds *workload.Dataset, seed int64) []core.Query {
	g := queryGen{ds, rand.New(rand.NewSource(seed + 2))}
	pool := make([]core.Clause, cfg.SubClausePool)
	for i := range pool {
		pool[i] = g.clause()
	}
	qs := make([]core.Query, cfg.Subs)
	for i := range qs {
		qs[i] = core.Query{Range: g.rangeCond(rangeSelectivity), Bool: core.CNF{pool[i%len(pool)]}, Width: ds.Width}
	}
	return qs
}

// oracle is the naive scan the program's answers are compared with: the
// ids of the objects in blocks [from, to] that satisfy q.
func oracle(ds *workload.Dataset, q core.Query, from, to int) []chain.ObjectID {
	var ids []chain.ObjectID
	for h := from; h <= to && h < len(ds.Blocks); h++ {
		for _, o := range ds.Blocks[h] {
			if q.MatchesObject(o.V, o.W) {
				ids = append(ids, o.ID)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// sameObjects reports whether a verified answer is exactly the
// oracle's.
func sameObjects(got []chain.Object, want []chain.ObjectID) error {
	ids := make([]chain.ObjectID, len(got))
	for i, o := range got {
		ids[i] = o.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) != len(want) {
		return fmt.Errorf("answer has %d objects, naive scan finds %d", len(ids), len(want))
	}
	for i := range ids {
		if ids[i] != want[i] {
			return fmt.Errorf("answer object %d is not in the naive scan", ids[i])
		}
	}
	return nil
}

// payloadBytes is the size of the objects themselves, the base that
// write amplification is taken against.
func payloadBytes(objs []chain.Object) int {
	n := 0
	for _, o := range objs {
		n += len(o.Bytes())
	}
	return n
}
