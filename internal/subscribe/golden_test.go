package subscribe

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/proofs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden publication-digest fixture")

// TestGoldenPublications pins every publication of a seeded toy chain
// — the SHA-256 of core.EncodeVO plus (QueryID, From, To) — and the
// proofs each block computes on a fresh engine, over acc1/acc2 ×
// ModeBoth/ModeNil × eager/lazy × nip/IP-tree, where eager is
// LazyThreshold 0 (and must publish the same at 1) and lazy is
// LazyThreshold 4. The lazy runs cover
// spans that collapse into skips (acc2 by ProofSum, acc1 by fresh skip
// proofs) and forced flushes of 4-block spans; ModeNil roots carry no
// digest.
// A refactor of the subscription engine must pass without -update;
// regenerate with `go test -run TestGoldenPublications -update
// ./internal/subscribe/` only after an intentional format change.
func TestGoldenPublications(t *testing.T) {
	const blocks = 11
	match := func(h int) bool { return h == 5 || h == 10 }
	queries := []core.Query{
		carQuery(),
		{Range: &core.RangeCond{Lo: []int64{0}, Hi: []int64{8}}, Bool: carQuery().Bool, Width: testWidth},
		{Bool: core.CNF{core.KeywordClause("bmw")}, Width: testWidth},
		{Bool: core.CNF{core.KeywordClause("coupe", "benz")}, Width: testWidth},
		{Range: &core.RangeCond{Lo: []int64{4}, Hi: []int64{4}}, Bool: core.CNF{core.KeywordClause("sedan")}, Width: testWidth},
	}
	accs := []struct {
		name string
		acc  accumulator.Accumulator
	}{
		{"acc1", acc1(t)},
		// A wider hash domain than acc2(t)'s: no keyword of the corpus
		// collides with a query keyword.
		{"acc2", accumulator.KeyGenCon2Deterministic(pairing.Toy(), 4096, accumulator.HashEncoder{Q: 4096}, []byte("golden-pubs"))},
	}

	// pinned runs one configuration and returns its fixture lines and
	// publications.
	pinned := func(name string, acc accumulator.Accumulator, mode core.IndexMode, threshold int, ip bool) ([]string, []Publication, *core.FullNode) {
		var lines []string
		eng := proofs.New(acc, proofs.Options{})
		sub := NewEngine(acc, Options{UseIPTree: ip, LazyThreshold: threshold, Proofs: eng})
		for _, q := range queries {
			if _, err := sub.Register(q); err != nil {
				t.Fatal(err)
			}
		}
		var pubs []Publication
		node := core.NewFullNode(0, &core.Builder{Acc: acc, Mode: mode, SkipSize: 2, Width: testWidth})
		for h := 0; h < blocks; h++ {
			if _, err := node.MineBlock(goldenObjects(h, match(h)), int64(1000+h)); err != nil {
				t.Fatal(err)
			}
			before := eng.Stats().Proofs
			due, err := sub.ProcessBlock(adsAt(t, node, h), node)
			if err != nil {
				t.Fatalf("%s block %d: %v", name, h, err)
			}
			lines = append(lines, fmt.Sprintf("%s block %d proofs=%d", name, h, eng.Stats().Proofs-before))
			for i := range due {
				lines = append(lines, pubLine(name, acc, &due[i]))
			}
			pubs = append(pubs, due...)
		}
		for _, id := range sub.Subscriptions() {
			if p := sub.Deregister(id); p != nil {
				lines = append(lines, pubLine(name, acc, p))
				pubs = append(pubs, *p)
			}
		}
		return lines, pubs, node
	}

	var got []string
	for _, a := range accs {
		for _, mode := range []core.IndexMode{core.ModeBoth, core.ModeNil} {
			// Threshold 0 publishes every block (the fixture's eager
			// rows); 4 bounds a lazy span.
			for _, threshold := range []int{0, 4} {
				lazy := threshold > 1
				for _, ip := range []bool{false, true} {
					name := fmt.Sprintf("%s/%v/lazy=%v/iptree=%v", a.name, mode, lazy, ip)
					lines, pubs, node := pinned(name, a.acc, mode, threshold, ip)
					got = append(got, lines...)
					if !lazy {
						// 0 and 1 are one setting.
						one, _, n1 := pinned(name, a.acc, mode, 1, ip)
						n1.Close()
						if !slices.Equal(one, lines) {
							t.Errorf("%s: threshold 1 publishes differently from threshold 0", name)
						}
					}
					// The fixture pins only publications a light client accepts.
					light := chain.NewLightStore(0)
					if err := light.Sync(node.Store.Headers()); err != nil {
						t.Fatal(err)
					}
					ver := &core.Verifier{Acc: a.acc, Light: light}
					skips := 0
					for i := range pubs {
						p := &pubs[i]
						if _, err := VerifyPublication(ver, queries[p.QueryID], p); err != nil {
							t.Fatalf("%s q%d [%d,%d] rejected: %v", name, p.QueryID, p.From, p.To, err)
						}
						for _, b := range p.VO.Blocks {
							if b.Skip != nil {
								skips++
							}
						}
					}
					// acc2 collapses by ProofSum, acc1 by a fresh skip proof.
					if lazy && mode == core.ModeBoth && skips == 0 {
						t.Errorf("%s: no lazy span collapsed into a skip", name)
					}
					node.Close()
				}
			}
		}
	}

	path := filepath.Join("testdata", "golden_pub_digests.txt")
	content := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d lines)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("%d golden lines, fixture has %d: publications or proof counts changed", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("diverges from the golden fixture:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}

// goldenObjects is block h of the golden corpus: two cars whose values
// and keywords vary with h, so blocks prove different multisets, plus a
// {sedan, benz} match where match is true.
func goldenObjects(h int, match bool) []chain.Object {
	kws := [][]string{{"van", "audi"}, {"van", "bmw"}, {"suv", "audi"}, {"van", "vw"}}
	base := uint64(h * 10)
	objs := []chain.Object{
		{ID: chain.ObjectID(base + 1), TS: int64(h), V: []int64{int64(h % 16)}, W: kws[h%4]},
		{ID: chain.ObjectID(base + 2), TS: int64(h), V: []int64{int64((7*h + 3) % 16)}, W: kws[(h+1)%4]},
	}
	if match {
		objs = append(objs, chain.Object{ID: chain.ObjectID(base + 3), TS: int64(h), V: []int64{4}, W: []string{"sedan", "benz"}})
	}
	return objs
}

// pubLine is one publication's fixture line.
func pubLine(config string, acc accumulator.Accumulator, p *Publication) string {
	sum := sha256.Sum256(core.EncodeVO(acc, p.VO))
	return fmt.Sprintf("%s q%d [%d,%d] %x", config, p.QueryID, p.From, p.To, sum)
}
