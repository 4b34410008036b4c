package shard_test

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/shard"
	"github.com/vchain-go/vchain/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden part-digest fixture")

// TestGoldenVectors extends core's golden VO fixtures across shard
// counts: it pins the SHA-256 of core.EncodeVO for every part of a
// seeded corpus over acc1/acc2 × batched=false/true × shards ∈ {1,2,4},
// plus the monolithic core.FullNode VO. The nodes batch every answer
// (§6.3) and ignore the argument, so each batched=false row pins that
// its answer equals the batched=true row. Every sharded answer must be a
// single part equal to the monolithic VO byte for byte. A refactor of the node layers must pass
// without -update; regenerate with `go test -run TestGoldenVectors
// -update ./internal/shard/` only after an intentional format change.
func TestGoldenVectors(t *testing.T) {
	const blocks, band = 24, 4
	ds, err := workload.Generate(workload.Config{Kind: workload.FSQ, Blocks: blocks, ObjectsPerBlock: 4, Seed: 20190630})
	if err != nil {
		t.Fatal(err)
	}
	windows := [][2]int{{0, blocks - 1}, {3, 17}, {8, 11}, {5, 5}, {2, 9}, {12, 23}}
	queries := ds.RandomQueries(len(windows), workload.QueryConfig{Selectivity: 0.3, Seed: 7})
	for i := range queries {
		queries[i].StartBlock, queries[i].EndBlock = windows[i][0], windows[i][1]
	}
	pr := pairing.Toy()
	// acc2 encodes through a dictionary: ids are assigned on first sight,
	// which is deterministic here because the monolithic node mines and
	// answers every query before any sharded node runs concurrently.
	accs := []struct {
		name string
		acc  accumulator.Accumulator
	}{
		{"acc1", accumulator.KeyGenCon1Deterministic(pr, 1024, []byte("golden-parts"))},
		{"acc2", accumulator.KeyGenCon2Deterministic(pr, 4096, accumulator.NewDictEncoder(4096), []byte("golden-parts"))},
	}

	type miner interface {
		MineBlock(objs []chain.Object, ts int64) (*chain.Block, error)
		TimeWindowParts(ctx context.Context, q core.Query, batched bool) ([]core.WindowPart, error)
		Close() error
	}
	var got []string
	for _, a := range accs {
		builder := &core.Builder{Acc: a.acc, Mode: core.ModeBoth, SkipSize: 2, Width: ds.Width}
		nodes := []struct {
			name string
			node miner
		}{{"mono", core.NewFullNode(0, builder)}}
		for _, n := range []int{1, 2, 4} {
			nodes = append(nodes, struct {
				name string
				node miner
			}{fmt.Sprintf("shards=%d", n), shard.New(0, builder, shard.Options{Shards: n, Band: band})})
		}
		for _, batched := range []bool{false, true} {
			mono := map[int]string{}
			for _, nd := range nodes {
				if !batched {
					for h, objs := range ds.Blocks {
						if _, err := nd.node.MineBlock(objs, int64(1000+h)); err != nil {
							t.Fatalf("%s %s: mining block %d: %v", a.name, nd.name, h, err)
						}
					}
				}
				for qi, q := range queries {
					parts, err := nd.node.TimeWindowParts(context.Background(), q, batched)
					if err != nil {
						t.Fatalf("%s %s q%d: %v", a.name, nd.name, qi, err)
					}
					for _, p := range parts {
						sum := fmt.Sprintf("%x", sha256.Sum256(core.EncodeVO(a.acc, p.VO)))
						got = append(got, fmt.Sprintf("%s/batched=%v/%s/q%d/[%d,%d] %s",
							a.name, batched, nd.name, qi, p.Start, p.End, sum))
						switch {
						case nd.name == "mono":
							mono[qi] = sum
						case len(parts) != 1 || sum != mono[qi]:
							t.Errorf("%s batched=%v %s q%d: the answer is not the monolithic VO", a.name, batched, nd.name, qi)
						}
					}
				}
			}
		}
		for _, nd := range nodes {
			nd.node.Close()
		}
	}

	path := filepath.Join("testdata", "golden_part_digests.txt")
	content := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d digests)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("%d part digests, fixture has %d: the window planning changed", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("part digest diverges from the golden fixture:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}
