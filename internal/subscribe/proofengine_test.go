package subscribe

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/multiset"
	"github.com/vchain-go/vchain/internal/proofs"
)

// TestSharedEngineDeduplicatesAcrossQueries registers several
// subscriptions with identical conditions and checks that the shared
// proof engine computes each distinct (block multiset, clause) proof
// once — the cross-query reuse the nip baseline lacked.
func TestSharedEngineDeduplicatesAcrossQueries(t *testing.T) {
	acc := acc2(t)
	eng := proofs.New(acc, proofs.Options{Workers: 4})
	never := func(int) bool { return false }
	// No IP-tree: without the cache every query would prove its own
	// block-mismatch proof every block.
	opts := Options{Proofs: eng}
	f := run(t, acc, opts, 4, never, carQuery(), carQuery(), carQuery())

	for id := 0; id < 3; id++ {
		if _, covered := verifyAll(t, f, acc, carQuery(), id); len(covered) != 4 {
			t.Fatalf("query %d covered %d heights, want 4", id, len(covered))
		}
	}
	st := eng.Stats()
	if st.CacheHits == 0 {
		t.Fatalf("identical queries produced no cache hits: %+v", st)
	}
	// 3 identical queries over 4 blocks: at least 2/3 of lookups must
	// be served from cache/single-flight.
	if st.HitRate() < 0.5 {
		t.Fatalf("hit rate %.2f too low for identical queries: %+v", st.HitRate(), st)
	}
}

// TestSharedEngineParallelMatchesSerial checks that publications
// produced with a parallel, cached engine verify identically to a
// one-worker engine's.
func TestSharedEngineParallelMatchesSerial(t *testing.T) {
	acc := acc2(t)
	match := func(i int) bool { return i%2 == 0 }
	queries := []struct {
		name string
		opts Options
	}{
		{"serial", Options{}},
		{"parallel", Options{Proofs: proofs.New(acc, proofs.Options{Workers: 4})}},
		{"parallel-iptree", Options{UseIPTree: true,
			Proofs: proofs.New(acc, proofs.Options{Workers: 4})}},
	}
	var wantResults, wantPubs int
	for i, cfg := range queries {
		f := run(t, acc, cfg.opts, 6, match, carQuery())
		results, covered := verifyAll(t, f, acc, carQuery(), 0)
		if len(covered) != 6 {
			t.Fatalf("%s: covered %d heights", cfg.name, len(covered))
		}
		if i == 0 {
			wantResults, wantPubs = results, len(f.pubs[0])
			continue
		}
		if results != wantResults || len(f.pubs[0]) != wantPubs {
			t.Fatalf("%s: %d results / %d pubs, want %d / %d",
				cfg.name, results, len(f.pubs[0]), wantResults, wantPubs)
		}
	}
}

// TestEngineStatsExposed checks that subscription proofs are counted
// on the engine passed as Options.Proofs.
func TestEngineStatsExposed(t *testing.T) {
	acc := acc2(t)
	never := func(int) bool { return false }
	f := run(t, acc, Options{}, 3, never, carQuery())
	st := f.proofs.Stats()
	if st.Proofs == 0 {
		t.Fatalf("subscription processing computed no proofs: %+v", st)
	}
}

var errInjectedProof = errors.New("injected proof failure")

// failingAcc fails every disjointness proof whose first multiset is
// larger than one block's: exactly the skip proofs of a lazy collapse.
type failingAcc struct {
	accumulator.Accumulator
	blockCard int
}

func (a failingAcc) ProveDisjoint(x1, x2 multiset.Multiset) (accumulator.Proof, error) {
	if x1.Cardinality() > a.blockCard {
		return accumulator.Proof{}, errInjectedProof
	}
	return a.Accumulator.ProveDisjoint(x1, x2)
}

// TestLazySkipProofFailureFailsBlock pins that a fresh skip proof that
// fails for any reason but the key's capacity is reported by
// ProcessBlock at every worker count, which drops the subscription,
// instead of silently falling back to a smaller skip.
func TestLazySkipProofFailureFailsBlock(t *testing.T) {
	acc := acc1(t) // no ProofSum: every collapse proves its skip afresh
	for _, workers := range []int{1, 4} {
		node := core.NewFullNode(0, &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: 2, Width: testWidth})
		if _, err := node.MineBlock(rentalObjects(0, false), 1000); err != nil {
			t.Fatal(err)
		}
		failing := failingAcc{Accumulator: acc, blockCard: adsAt(t, node, 0).BlockW().Cardinality()}
		engine := NewEngine(acc, Options{LazyThreshold: DefaultLazyThreshold,
			Proofs: proofs.New(failing, proofs.Options{Workers: workers})})
		if _, err := engine.Register(carQuery()); err != nil {
			t.Fatal(err)
		}
		var err error
		for h := 0; h < 8 && err == nil; h++ {
			if h > 0 {
				if _, err := node.MineBlock(rentalObjects(h, false), int64(1000+h)); err != nil {
					t.Fatal(err)
				}
			}
			_, err = engine.ProcessBlock(adsAt(t, node, h), node)
		}
		var dropped *DroppedError
		if !errors.Is(err, errInjectedProof) || !errors.As(err, &dropped) || !slices.Equal(dropped.IDs, []int{0}) {
			t.Errorf("%d workers: got %v, want the injected skip-proof failure dropping subscription 0", workers, err)
		}
	}
}

// rendezvousAcc holds its first ProveDisjoint until a second one
// starts, or until a bound passes, and records whether they met.
type rendezvousAcc struct {
	accumulator.Accumulator
	calls  atomic.Int32
	second chan struct{}
	met    atomic.Bool
}

func (a *rendezvousAcc) ProveDisjoint(x1, x2 multiset.Multiset) (accumulator.Proof, error) {
	switch a.calls.Add(1) {
	case 1:
		select {
		case <-a.second:
			a.met.Store(true)
		case <-time.After(5 * time.Second):
		}
	case 2:
		close(a.second)
	}
	return a.Accumulator.ProveDisjoint(x1, x2)
}

// TestIPTreeGroupProofsRunConcurrently pins that one block's IP-tree
// group proofs run on the engine's worker pool: on a 2-worker engine,
// two of them are in flight at once.
func TestIPTreeGroupProofsRunConcurrently(t *testing.T) {
	acc := acc1(t)
	node := core.NewFullNode(0, &core.Builder{Acc: acc, Mode: core.ModeIntra, Width: testWidth})
	if _, err := node.MineBlock(rentalObjects(0, false), 1000); err != nil {
		t.Fatal(err)
	}
	racc := &rendezvousAcc{Accumulator: acc, second: make(chan struct{})}
	engine := NewEngine(acc, Options{UseIPTree: true,
		Proofs: proofs.New(racc, proofs.Options{Workers: 2})})
	// Two clauses the block misses: two groups, each deciding its query
	// with a root mismatch, so the block needs exactly their two proofs.
	for _, kw := range []string{"sedan", "benz"} {
		if _, err := engine.Register(core.Query{Bool: core.CNF{core.KeywordClause(kw)}, Width: testWidth}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := engine.ProcessBlock(adsAt(t, node, 0), node); err != nil {
		t.Fatal(err)
	}
	if n := racc.calls.Load(); n != 2 {
		t.Fatalf("%d proofs computed, want the two group proofs", n)
	}
	if !racc.met.Load() {
		t.Fatal("the two group proofs ran one after the other")
	}
}

// collidingKeyword returns a keyword whose element is in neither
// multiset but encodes, under enc, to the code of an element that only
// in has: the SP cannot prove a block with that element disjoint from
// the keyword (a hash-encoder collision, a liveness issue only).
func collidingKeyword(t *testing.T, enc accumulator.ElementEncoder, in, notIn multiset.Multiset) string {
	t.Helper()
	code := func(elem string) int {
		c, err := enc.Encode(elem)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	target := map[int]bool{}
	for _, e := range in {
		target[code(e.Elem)] = true
	}
	for _, e := range notIn {
		delete(target, code(e.Elem))
	}
	for i := 0; i < 1<<16; i++ {
		el := core.KeywordElement(fmt.Sprintf("absent-%d", i))
		if target[code(el)] && !in.IntersectsSet([]string{el}) {
			return fmt.Sprintf("absent-%d", i)
		}
	}
	t.Fatal("no colliding keyword found")
	return ""
}

// TestUnprovableSubscriptionDropped pins that a subscription whose
// clause cannot be proved disjoint from a block is dropped alone: its
// keyword collides with an element of the one result block, so
// ProcessBlock names it in a *DroppedError there and deregisters it,
// and every other subscription publishes byte for byte what a run
// without it publishes, eager and lazy, with and without the IP-tree.
func TestUnprovableSubscriptionDropped(t *testing.T) {
	acc := acc2(t)
	const blocks, matchAt = 10, 6
	node := core.NewFullNode(0, &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: 2, Width: testWidth})
	for h := 0; h < blocks; h++ {
		if _, err := node.MineBlock(rentalObjects(h, h == matchAt), int64(1000+h)); err != nil {
			t.Fatal(err)
		}
	}
	kw := collidingKeyword(t, accumulator.HashEncoder{Q: 512}, // acc2's encoder
		adsAt(t, node, matchAt).BlockW(), adsAt(t, node, 0).BlockW())
	others := []core.Query{carQuery(), {Bool: core.CNF{core.KeywordClause("bmw")}, Width: testWidth}}
	colliding := core.Query{Bool: core.CNF{core.KeywordClause(kw)}, Width: testWidth}

	for _, threshold := range []int{0, 4} {
		for _, ip := range []bool{false, true} {
			name := fmt.Sprintf("threshold=%d/iptree=%v", threshold, ip)
			// process runs a fresh engine over the chain and returns its
			// publications, encoded, and each block's error.
			process := func(queries []core.Query) (map[int][]string, map[int]error, *Engine) {
				t.Helper()
				eng := NewEngine(acc, Options{UseIPTree: ip, LazyThreshold: threshold, Proofs: newProofs(acc)})
				for _, q := range queries {
					if _, err := eng.Register(q); err != nil {
						t.Fatal(err)
					}
				}
				pubs, errs := map[int][]string{}, map[int]error{}
				for h := 0; h < blocks; h++ {
					due, err := eng.ProcessBlock(adsAt(t, node, h), node)
					if err != nil {
						errs[h] = err
					}
					for _, p := range due {
						if p.To >= matchAt && p.QueryID == len(others) {
							t.Errorf("%s: the colliding query published [%d,%d]", name, p.From, p.To)
						}
						pubs[p.QueryID] = append(pubs[p.QueryID],
							fmt.Sprintf("[%d,%d] %x", p.From, p.To, core.EncodeVO(acc, p.VO)))
					}
				}
				return pubs, errs, eng
			}
			want, errs, _ := process(others)
			if len(errs) != 0 {
				t.Fatalf("%s: without the colliding query: %v", name, errs)
			}
			got, errs, eng := process(append(others, colliding))
			var dropped *DroppedError
			if len(errs) != 1 || !errors.As(errs[matchAt], &dropped) || !slices.Equal(dropped.IDs, []int{len(others)}) {
				t.Fatalf("%s: block errors %v, want one *DroppedError of subscription %d at height %d", name, errs, len(others), matchAt)
			}
			if ids := eng.Subscriptions(); !slices.Equal(ids, []int{0, 1}) {
				t.Errorf("%s: subscriptions %v after the drop, want [0 1]", name, ids)
			}
			for id := range others {
				if !slices.Equal(got[id], want[id]) {
					t.Errorf("%s: q%d publishes differently beside the colliding query", name, id)
				}
			}
		}
	}
}
