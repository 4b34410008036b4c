package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/shard"
	"github.com/vchain-go/vchain/internal/workload"
)

// RestartFig measures SP cold-start: how fast a node comes back after a
// restart over the segmented-log block store. The log persists every
// block at mine time (the "mine+persist" column is the full mining cost
// including the per-commit fsync), so a restart is a single index-only
// reopen. It ends with a verified time-window query over the whole
// chain, so the number covers everything up to serving traffic again.
func RestartFig(o Options) (*Table, error) {
	o = o.withDefaults()
	pr := pairing.ByName(o.Preset)
	ds, err := workload.Generate(workload.Config{Kind: workload.FSQ, Blocks: o.Blocks, ObjectsPerBlock: o.ObjectsPerBlock, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	acc := newAccumulator(pr, ds, o, "acc2")
	queries := ds.RandomQueries(1, workload.QueryConfig{Seed: o.Seed + 11, RangeDims: 1})

	table := &Table{
		Title: "Restart (cold start from the block log)",
		Note: fmt.Sprintf("4SQ, acc2/both, %d objects/block; the reopen ends with a verified query",
			o.ObjectsPerBlock),
		Columns: []string{"blocks", "mine+persist (ms)", "log reopen (ms)", "log KB"},
	}
	for _, n := range []int{o.Blocks / 4, o.Blocks / 2, o.Blocks} {
		if n < 2 {
			continue
		}
		row, err := restartRow(acc, ds, o, n, queries[0])
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}

// restartRow mines one chain length to a log and reopens it.
func restartRow(acc accumulator.Accumulator, ds *workload.Dataset, o Options, n int, q core.Query) ([]string, error) {
	b := &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: o.SkipListSize, Width: ds.Width}
	dir, err := os.MkdirTemp("", "vchain-restart-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "store")

	// Mine the chain straight into the log: every block is durably
	// committed as it is mined.
	t0 := time.Now()
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
	mineTime := time.Since(t0)
	if err := node.Close(); err != nil {
		return nil, err
	}
	q.StartBlock, q.EndBlock = 0, n-1

	// Cold start: reopen the log and serve a verified query.
	t0 = time.Now()
	reopened, _, err := shard.Open(0, b, storeDir, shard.Options{})
	if err != nil {
		return nil, err
	}
	if err := verifiedQuery(reopened.FullNode, acc, q); err != nil {
		reopened.Close()
		return nil, fmt.Errorf("bench: post-reopen query: %w", err)
	}
	reopenTime := time.Since(t0)
	if err := reopened.Close(); err != nil {
		return nil, err
	}

	logBytes, err := dirBytes(storeDir)
	if err != nil {
		return nil, err
	}
	return []string{fmt.Sprintf("%d", n), ms(mineTime), ms(reopenTime), kb(int(logBytes))}, nil
}

// verifiedQuery runs q on the node and verifies the VO against a light
// store synced from the node's own headers — the "serving traffic
// again" endpoint of a restart.
func verifiedQuery(node *core.FullNode, acc accumulator.Accumulator, q core.Query) error {
	light := chain.NewLightStore(0)
	if err := light.Sync(node.Store.Headers()); err != nil {
		return err
	}
	vo, err := node.SP(false).TimeWindowQuery(q)
	if err != nil {
		return err
	}
	_, err = (&core.Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
	return err
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
