package bench

import (
	"fmt"
	"strings"
	"time"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/mhtree"
	"github.com/vchain-go/vchain/internal/workload"
)

// Table1 reproduces the miner's setup cost table: per-block ADS
// construction time and size for {nil, intra, both} × {acc1, acc2} on
// all three datasets, plus the light-node header size.
func Table1(o Options) (*Table, error) {
	o = o.withDefaults()
	pr := pairing.ByName(o.Preset)
	t := &Table{
		Title:   "Table 1: Miner's Setup Cost",
		Note:    fmt.Sprintf("%d blocks, %d objects/block, preset=%s; T in ms/block, S in KB/block, header in bits", o.Blocks, o.ObjectsPerBlock, o.Preset),
		Columns: []string{"Dataset", "Acc", "T(nil)", "S(nil)", "T(intra)", "S(intra)", "T(both)", "S(both)", "Hdr(bits) nil/intra/both"},
	}
	for _, kind := range []workload.Kind{workload.FSQ, workload.WX, workload.ETH} {
		ds, err := workload.Generate(workload.Config{Kind: kind, Blocks: o.Blocks, ObjectsPerBlock: o.ObjectsPerBlock, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		for _, accName := range []string{"acc1", "acc2"} {
			row := []string{string(kind), accName}
			hdrBits := make([]string, 0, 3)
			for _, mode := range []core.IndexMode{core.ModeNil, core.ModeIntra, core.ModeBoth} {
				skip := 0
				if mode == core.ModeBoth {
					skip = o.SkipListSize
				}
				s, err := buildSetup(pr, ds, o, accName, mode, skip)
				if err != nil {
					return nil, err
				}
				st := s.node.SetupStats
				perBlockT := st.BuildTime / time.Duration(st.Blocks)
				perBlockS := float64(st.ADSBytes) / float64(st.Blocks)
				row = append(row, ms(perBlockT), kb(int(perBlockS)))
				hdr, _ := s.node.HeaderAt(s.node.Height() - 1)
				hdrBits = append(hdrBits, fmt.Sprintf("%d", hdr.SizeBits()))
			}
			row = append(row, strings.Join(hdrBits, "/"))
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// TimeWindowFig reproduces Figs. 9–11: time-window query performance
// (SP CPU, user CPU, VO size) as the window grows, for the six schemes
// nil/intra/both × acc1/acc2.
func TimeWindowFig(kind workload.Kind, title string, o Options) (*Table, error) {
	o = o.withDefaults()
	pr := pairing.ByName(o.Preset)
	ds, err := workload.Generate(workload.Config{Kind: kind, Blocks: o.Blocks, ObjectsPerBlock: o.ObjectsPerBlock, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	queries := ds.RandomQueries(o.Queries, workload.QueryConfig{Seed: o.Seed + 1, RangeDims: rangeDims(kind)})
	windows := windowSweep(o.Blocks)

	t := &Table{
		Title: fmt.Sprintf("%s: Time-Window Query Performance (%s)", title, kind),
		Note: fmt.Sprintf("%d blocks, %d objects/block, %d queries/point, selectivity=%.0f%%, bool fan-out=%d",
			o.Blocks, o.ObjectsPerBlock, o.Queries, ds.DefaultSelectivity*100, ds.BoolSize),
		Columns: []string{"Scheme", "Window(blocks)", "SP CPU(ms)", "User CPU(ms)", "VO(KB)", "Results", "Proofs/s", "Hit%"},
	}
	for _, accName := range []string{"acc1", "acc2"} {
		for _, mode := range []core.IndexMode{core.ModeNil, core.ModeIntra, core.ModeBoth} {
			skip := 0
			if mode == core.ModeBoth {
				skip = o.SkipListSize
			}
			s, err := buildSetup(pr, ds, o, accName, mode, skip)
			if err != nil {
				return nil, err
			}
			for _, w := range windows {
				m, err := runWindowQueries(s, queries, o.Blocks-w, o.Blocks-1)
				if err != nil {
					return nil, err
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%s-%s", mode, accName),
					fmt.Sprintf("%d", w),
					ms(m.spTime), ms(m.userTime), kb(m.voBytes),
					fmt.Sprintf("%d", m.results),
					fmt.Sprintf("%.0f", m.proofsPerSec()), pct(m.hitRate),
				})
			}
		}
	}
	return t, nil
}

// SelectivityFig reproduces Figs. 17–19: fixed window, selectivity
// swept 10%–50%, both indexes enabled, acc1 vs acc2.
func SelectivityFig(kind workload.Kind, title string, o Options) (*Table, error) {
	o = o.withDefaults()
	pr := pairing.ByName(o.Preset)
	ds, err := workload.Generate(workload.Config{Kind: kind, Blocks: o.Blocks, ObjectsPerBlock: o.ObjectsPerBlock, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("%s: Impact of Selectivity (%s)", title, kind),
		Note: fmt.Sprintf("window=%d blocks, both indexes, skip size %d; %d queries/point",
			o.Blocks, o.SkipListSize, o.Queries),
		Columns: []string{"Acc", "Selectivity", "SP CPU(ms)", "User CPU(ms)", "VO(KB)", "Results"},
	}
	for _, accName := range []string{"acc1", "acc2"} {
		s, err := buildSetup(pr, ds, o, accName, core.ModeBoth, o.SkipListSize)
		if err != nil {
			return nil, err
		}
		for _, sel := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
			queries := ds.RandomQueries(o.Queries, workload.QueryConfig{
				Selectivity: sel, Seed: o.Seed + int64(sel*100), RangeDims: rangeDims(kind),
			})
			m, err := runWindowQueries(s, queries, 0, o.Blocks-1)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				accName, fmt.Sprintf("%.0f%%", sel*100),
				ms(m.spTime), ms(m.userTime), kb(m.voBytes),
				fmt.Sprintf("%d", m.results),
			})
		}
	}
	return t, nil
}

// SkipListFig reproduces Figs. 20–22: skip-list size swept over
// {0, 1, 3, 5} (maximum jumps 0/4/16/64).
func SkipListFig(kind workload.Kind, title string, o Options) (*Table, error) {
	o = o.withDefaults()
	pr := pairing.ByName(o.Preset)
	ds, err := workload.Generate(workload.Config{Kind: kind, Blocks: o.Blocks, ObjectsPerBlock: o.ObjectsPerBlock, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	queries := ds.RandomQueries(o.Queries, workload.QueryConfig{Seed: o.Seed + 7, RangeDims: rangeDims(kind)})
	t := &Table{
		Title: fmt.Sprintf("%s: Impact of SkipList Size (%s)", title, kind),
		Note: fmt.Sprintf("window=%d blocks, %d queries/point; size 0 = intra only",
			o.Blocks, o.Queries),
		Columns: []string{"Acc", "SkipSize", "MaxJump", "SP CPU(ms)", "User CPU(ms)", "VO(KB)"},
	}
	for _, accName := range []string{"acc1", "acc2"} {
		for _, size := range []int{0, 1, 3, 5} {
			mode := core.ModeBoth
			if size == 0 {
				mode = core.ModeIntra
			}
			// The acc1 key must cover the largest aggregate this size
			// can produce: size the capacity per configuration.
			oo := o
			oo.SkipListSize = size
			s, err := buildSetup(pr, ds, oo, accName, mode, size)
			if err != nil {
				return nil, err
			}
			m, err := runWindowQueries(s, queries, 0, o.Blocks-1)
			if err != nil {
				return nil, err
			}
			maxJump := 0
			if size > 0 {
				maxJump = 1 << uint(size+1)
			}
			t.Rows = append(t.Rows, []string{
				accName, fmt.Sprintf("%d", size), fmt.Sprintf("%d", maxJump),
				ms(m.spTime), ms(m.userTime), kb(m.voBytes),
			})
		}
	}
	return t, nil
}

// MHTComparisonFig reproduces Fig. 16: the accumulator ADS vs the
// traditional multi-attribute MHT baseline as dimensionality grows —
// construction time and block size normalized to the raw block.
func MHTComparisonFig(o Options) (*Table, error) {
	o = o.withDefaults()
	pr := pairing.ByName(o.Preset)
	t := &Table{
		Title: "Fig. 16: Comparison with MHT (WX-derived numeric data)",
		Note: fmt.Sprintf("%d objects/block, %d blocks averaged; normalized size = (block+ADS)/block",
			o.ObjectsPerBlock, 4),
		Columns: []string{"Dim", "acc1 T(ms)", "acc2 T(ms)", "MHT T(ms)", "acc1 size×", "acc2 size×", "MHT size×"},
	}
	blocks := 4
	for dim := 1; dim <= 9; dim += 2 {
		ds := syntheticNumeric(dim, blocks, o.ObjectsPerBlock, o.Seed)
		rawBytes := 0
		for _, blk := range ds.Blocks {
			for _, obj := range blk {
				rawBytes += len(obj.Bytes())
			}
		}
		rawBytes /= blocks

		row := []string{fmt.Sprintf("%d", dim)}
		sizes := make([]float64, 0, 3)
		for _, accName := range []string{"acc1", "acc2"} {
			s, err := buildSetup(pr, ds, o, accName, core.ModeIntra, 0)
			if err != nil {
				return nil, err
			}
			st := s.node.SetupStats
			row = append(row, ms(st.BuildTime/time.Duration(st.Blocks)))
			sizes = append(sizes, 1.0+float64(st.ADSBytes)/float64(st.Blocks)/float64(rawBytes))
		}
		// MHT baseline: one sorted Merkle tree per attribute combination.
		var mhtTime time.Duration
		mhtBytes := 0
		for _, blk := range ds.Blocks {
			rows := make([][]int64, len(blk))
			for i, obj := range blk {
				rows[i] = obj.V
			}
			t0 := time.Now()
			m := mhtree.BuildMultiAttr(rows)
			mhtTime += time.Since(t0)
			mhtBytes += m.SizeBytes()
		}
		row = append(row, ms(mhtTime/time.Duration(blocks)))
		sizes = append(sizes, 1.0+float64(mhtBytes)/float64(blocks)/float64(rawBytes))
		for _, s := range sizes {
			row = append(row, fmt.Sprintf("%.1f", s))
		}
		// Reorder: times already in place; sizes appended after MHT T.
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// syntheticNumeric builds a numeric-only dataset of the given
// dimensionality (the Fig. 16 workload: WX with the description
// attribute removed and dimensionality varied).
func syntheticNumeric(dims, blocks, objsPerBlock int, seed int64) *workload.Dataset {
	base, err := workload.Generate(workload.Config{Kind: workload.WX, Blocks: blocks, ObjectsPerBlock: objsPerBlock, Seed: seed})
	if err != nil {
		panic(err) // WX is a known kind; only Blocks<=0 can fail, excluded here
	}
	out := &workload.Dataset{
		Kind: workload.WX, Dims: dims, Width: base.Width,
		Vocabulary: base.Vocabulary, BoolSize: base.BoolSize, DefaultSelectivity: base.DefaultSelectivity,
	}
	id := uint64(1)
	for _, blk := range base.Blocks {
		nb := make([]chain.Object, 0, len(blk))
		for _, o := range blk {
			v := make([]int64, dims)
			for d := range v {
				v[d] = o.V[d%len(o.V)] + int64(d) // vary duplicated dims slightly
				max := int64(1)<<uint(base.Width) - 1
				if v[d] > max {
					v[d] = max
				}
			}
			nb = append(nb, chain.Object{ID: chain.ObjectID(id), TS: o.TS, V: v, W: nil})
			id++
		}
		out.Blocks = append(out.Blocks, nb)
	}
	return out
}

func rangeDims(kind workload.Kind) int {
	if kind == workload.WX {
		return 2 // the paper applies two of WX's seven attributes
	}
	return 0
}

// windowSweep returns five window sizes up to the chain length.
func windowSweep(blocks int) []int {
	out := make([]int, 0, 5)
	for i := 1; i <= 5; i++ {
		w := blocks * i / 5
		if w < 1 {
			w = 1
		}
		out = append(out, w)
	}
	return out
}
