package workload

import (
	"testing"

	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/multiset"
)

func TestGenerateShapes(t *testing.T) {
	for _, kind := range []Kind{FSQ, WX, ETH} {
		t.Run(string(kind), func(t *testing.T) {
			ds, err := Generate(Config{Kind: kind, Blocks: 5, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(ds.Blocks) != 5 {
				t.Fatalf("blocks %d", len(ds.Blocks))
			}
			sh := shapes[kind]
			for _, blk := range ds.Blocks {
				if len(blk) != sh.objsPerBlock {
					t.Fatalf("objects/block %d, want %d", len(blk), sh.objsPerBlock)
				}
				for _, o := range blk {
					if len(o.V) != sh.dims {
						t.Fatalf("dims %d, want %d", len(o.V), sh.dims)
					}
					max := int64(1)<<uint(sh.width) - 1
					for _, v := range o.V {
						if v < 0 || v > max {
							t.Fatalf("value %d outside [0,%d]", v, max)
						}
					}
					if len(o.W) != sh.kwPerObj {
						t.Fatalf("keywords %d, want %d", len(o.W), sh.kwPerObj)
					}
				}
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(Config{Kind: ETH, Blocks: 3, Seed: 7})
	b, _ := Generate(Config{Kind: ETH, Blocks: 3, Seed: 7})
	for i := range a.Blocks {
		for j := range a.Blocks[i] {
			if a.Blocks[i][j].Hash() != b.Blocks[i][j].Hash() {
				t.Fatal("same seed produced different data")
			}
		}
	}
	c, _ := Generate(Config{Kind: ETH, Blocks: 3, Seed: 8})
	if a.Blocks[0][0].Hash() == c.Blocks[0][0].Hash() {
		t.Fatal("different seeds produced identical first object")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Kind: "nope", Blocks: 1}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Generate(Config{Kind: FSQ, Blocks: 0}); err == nil {
		t.Error("zero blocks accepted")
	}
}

func TestObjectsPerBlockOverride(t *testing.T) {
	ds, err := Generate(Config{Kind: FSQ, Blocks: 2, ObjectsPerBlock: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Blocks[0]) != 3 {
		t.Fatalf("override ignored: %d", len(ds.Blocks[0]))
	}
}

func TestRandomQueriesSelectivity(t *testing.T) {
	ds, _ := Generate(Config{Kind: FSQ, Blocks: 2, Seed: 1})
	qs := ds.RandomQueries(20, QueryConfig{Selectivity: 0.25, Seed: 3})
	if len(qs) != 20 {
		t.Fatal("wrong count")
	}
	max := int64(1)<<uint(ds.Width) - 1
	for _, q := range qs {
		for d := range q.Range.Lo {
			span := q.Range.Hi[d] - q.Range.Lo[d] + 1
			want := int64(float64(max+1) * 0.25)
			if span > want || span < want-1 {
				t.Fatalf("span %d, want ≈%d", span, want)
			}
			if q.Range.Lo[d] < 0 || q.Range.Hi[d] > max {
				t.Fatalf("range [%d,%d] outside space", q.Range.Lo[d], q.Range.Hi[d])
			}
		}
		if len(q.Bool) != 1 {
			t.Fatal("want one Boolean clause")
		}
		if len(q.Bool[0]) != ds.BoolSize {
			t.Fatalf("clause size %d, want %d", len(q.Bool[0]), ds.BoolSize)
		}
		if _, err := q.CNF(); err != nil {
			t.Fatalf("generated query invalid: %v", err)
		}
	}
}

func TestRandomQueriesRangeDims(t *testing.T) {
	ds, _ := Generate(Config{Kind: WX, Blocks: 1, Seed: 1})
	qs := ds.RandomQueries(4, QueryConfig{RangeDims: 2, Seed: 5})
	for _, q := range qs {
		if len(q.Range.Lo) != 2 {
			t.Fatalf("range dims %d, want 2", len(q.Range.Lo))
		}
	}
}

func TestQueriesSelectSomething(t *testing.T) {
	// At the default selectivity, a workload of queries should select a
	// non-trivial, non-total fraction of objects — otherwise the
	// benchmarks degenerate.
	ds, _ := Generate(Config{Kind: FSQ, Blocks: 10, Seed: 2})
	qs := ds.RandomQueries(10, QueryConfig{Seed: 4})
	matched, total := 0, 0
	for _, q := range qs {
		for _, blk := range ds.Blocks {
			for _, o := range blk {
				total++
				if q.MatchesObject(o.V, o.W) {
					matched++
				}
			}
		}
	}
	if matched == 0 {
		t.Error("no query matched any object")
	}
	if matched == total {
		t.Error("queries match everything")
	}
}

func TestQueryCNFAgreesWithDirect(t *testing.T) {
	// Workload queries must round-trip through the prefix transform.
	ds, _ := Generate(Config{Kind: ETH, Blocks: 4, Seed: 9})
	qs := ds.RandomQueries(5, QueryConfig{Seed: 11})
	for _, q := range qs {
		cnf, err := q.CNF()
		if err != nil {
			t.Fatal(err)
		}
		for _, blk := range ds.Blocks {
			for _, o := range blk {
				elems := core.TransVector(o.V, ds.Width)
				for _, kw := range o.W {
					elems = append(elems, core.KeywordElement(kw))
				}
				m := multiset.New(elems...)
				if cnf.Match(m) != q.MatchesObject(o.V, o.W) {
					t.Fatalf("CNF and direct evaluation disagree on %v", o)
				}
			}
		}
	}
}
