package subscribe

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/proofs"
)

const testWidth = 4

func acc2(t testing.TB) accumulator.Accumulator {
	t.Helper()
	return accumulator.KeyGenCon2Deterministic(pairing.Toy(), 512, accumulator.HashEncoder{Q: 512}, []byte("sub"))
}

func acc1(t testing.TB) accumulator.Accumulator {
	t.Helper()
	return accumulator.KeyGenCon1Deterministic(pairing.Toy(), 256, []byte("sub"))
}

// rentalBlocks feeds car-rental objects: block i contains a matching
// {sedan, benz} car only when matchAt(i) is true.
func rentalObjects(i int, match bool) []chain.Object {
	base := uint64(i * 10)
	objs := []chain.Object{
		{ID: chain.ObjectID(base + 1), TS: int64(i), V: []int64{5}, W: []string{"van", "audi"}},
		{ID: chain.ObjectID(base + 2), TS: int64(i), V: []int64{9}, W: []string{"van", "bmw"}},
	}
	if match {
		objs = append(objs, chain.Object{
			ID: chain.ObjectID(base + 3), TS: int64(i), V: []int64{4}, W: []string{"sedan", "benz"},
		})
	}
	return objs
}

func carQuery() core.Query {
	return core.Query{
		Range: &core.RangeCond{Lo: []int64{3}, Hi: []int64{6}},
		Bool:  core.CNF{core.KeywordClause("sedan"), core.KeywordClause("benz", "bmw")},
		Width: testWidth,
	}
}

type fixture struct {
	node   *core.FullNode
	light  *chain.LightStore
	engine *Engine
	proofs *proofs.Engine
	pubs   map[int][]Publication
}

// newProofs is a fresh default proof engine over acc.
func newProofs(acc accumulator.Accumulator) *proofs.Engine {
	return proofs.New(acc, proofs.Options{})
}

// run mines `blocks` blocks, matching where matchAt says, processing
// subscriptions after every block. A nil opts.Proofs gets a fresh
// default engine.
func run(t *testing.T, acc accumulator.Accumulator, opts Options, blocks int, matchAt func(int) bool, queries ...core.Query) *fixture {
	t.Helper()
	b := &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: 2, Width: testWidth}
	node := core.NewFullNode(0, b)
	if opts.Proofs == nil {
		opts.Proofs = newProofs(acc)
	}
	engine := NewEngine(acc, opts)
	f := &fixture{node: node, engine: engine, proofs: opts.Proofs, pubs: map[int][]Publication{}}
	for _, q := range queries {
		if _, err := engine.Register(q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < blocks; i++ {
		if _, err := node.MineBlock(rentalObjects(i, matchAt(i)), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
		pubs, err := engine.ProcessBlock(adsAt(t, node, i), node)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pubs {
			f.pubs[p.QueryID] = append(f.pubs[p.QueryID], p)
		}
	}
	f.light = chain.NewLightStore(0)
	if err := f.light.Sync(node.Store.Headers()); err != nil {
		t.Fatal(err)
	}
	return f
}

// verifyAll checks every publication of query id and returns the total
// verified results and covered heights.
func verifyAll(t *testing.T, f *fixture, acc accumulator.Accumulator, q core.Query, id int) (results int, covered map[int]bool) {
	t.Helper()
	covered = map[int]bool{}
	ver := &core.Verifier{Acc: acc, Light: f.light}
	for _, pub := range f.pubs[id] {
		objs, err := VerifyPublication(ver, q, &pub)
		if err != nil {
			t.Fatalf("publication [%d,%d] rejected: %v", pub.From, pub.To, err)
		}
		results += len(objs)
		for h := pub.From; h <= pub.To; h++ {
			if covered[h] {
				t.Fatalf("height %d covered twice", h)
			}
			covered[h] = true
		}
	}
	return results, covered
}

func TestRealtimeSubscription(t *testing.T) {
	for name, acc := range map[string]accumulator.Accumulator{"acc1": acc1(t), "acc2": acc2(t)} {
		t.Run(name, func(t *testing.T) {
			match := func(i int) bool { return i%3 == 0 }
			f := run(t, acc, Options{}, 6, match, carQuery())
			results, covered := verifyAll(t, f, acc, carQuery(), 0)
			if results != 2 { // blocks 0 and 3
				t.Errorf("results = %d, want 2", results)
			}
			// Real-time mode publishes every block separately.
			if len(f.pubs[0]) != 6 {
				t.Errorf("publications = %d, want 6", len(f.pubs[0]))
			}
			for h := 0; h < 6; h++ {
				if !covered[h] {
					t.Errorf("height %d not covered", h)
				}
			}
		})
	}
}

func TestLazySubscriptionAggregatesSpans(t *testing.T) {
	acc := acc2(t)
	match := func(i int) bool { return i == 9 } // one match at the end
	f := run(t, acc, Options{LazyThreshold: DefaultLazyThreshold}, 10, match, carQuery())
	results, covered := verifyAll(t, f, acc, carQuery(), 0)
	if results != 1 {
		t.Errorf("results = %d, want 1", results)
	}
	// Lazy mode should publish once (at the match), covering all 10 blocks.
	if len(f.pubs[0]) != 1 {
		t.Fatalf("publications = %d, want 1", len(f.pubs[0]))
	}
	for h := 0; h < 10; h++ {
		if !covered[h] {
			t.Errorf("height %d not covered", h)
		}
	}
	// The span should use at least one skip entry (Alg. 5): fewer VO
	// blocks than heights.
	if n := len(f.pubs[0][0].VO.Blocks); n >= 10 {
		t.Errorf("lazy VO has %d entries for 10 blocks: skip collapse unused", n)
	}
}

func TestLazyThresholdForcesPublication(t *testing.T) {
	acc := acc2(t)
	never := func(int) bool { return false }
	f := run(t, acc, Options{LazyThreshold: 4}, 9, never, carQuery())
	if len(f.pubs[0]) == 0 {
		t.Fatal("threshold never fired")
	}
	results, _ := verifyAll(t, f, acc, carQuery(), 0)
	if results != 0 {
		t.Errorf("results = %d, want 0", results)
	}
}

// TestLazyThresholdCountsBlocks pins that LazyThreshold bounds the
// blocks a resultless span covers, not its VO entries: at threshold 4
// every publication covers 4 blocks, also once a span has collapsed
// into a 4-block skip.
func TestLazyThresholdCountsBlocks(t *testing.T) {
	acc := acc2(t)
	f := run(t, acc, Options{LazyThreshold: 4}, 12, func(int) bool { return false }, carQuery())
	var spans [][2]int
	skips := 0
	for _, p := range f.pubs[0] {
		spans = append(spans, [2]int{p.From, p.To})
		for _, b := range p.VO.Blocks {
			if b.Skip != nil {
				skips++
			}
		}
	}
	if want := [][2]int{{0, 3}, {4, 7}, {8, 11}}; !slices.Equal(spans, want) {
		t.Errorf("spans %v, want %v", spans, want)
	}
	if skips == 0 {
		t.Error("no span collapsed into a skip")
	}
	verifyAll(t, f, acc, carQuery(), 0)
}

func TestDeregisterFlushesPending(t *testing.T) {
	acc := acc2(t)
	b := &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: 2, Width: testWidth}
	node := core.NewFullNode(0, b)
	engine := NewEngine(acc, Options{LazyThreshold: DefaultLazyThreshold, Proofs: newProofs(acc)})
	id, err := engine.Register(carQuery())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := node.MineBlock(rentalObjects(i, false), int64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := engine.ProcessBlock(adsAt(t, node, i), node); err != nil {
			t.Fatal(err)
		}
	}
	pub := engine.Deregister(id)
	if pub == nil {
		t.Fatal("no flush on deregister")
	}
	if pub.From != 0 || pub.To != 2 {
		t.Errorf("span [%d,%d], want [0,2]", pub.From, pub.To)
	}
	light := chain.NewLightStore(0)
	if err := light.Sync(node.Store.Headers()); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyPublication(&core.Verifier{Acc: acc, Light: light}, carQuery(), pub); err != nil {
		t.Fatal(err)
	}
	if got := engine.Subscriptions(); len(got) != 0 {
		t.Errorf("subscriptions after deregister: %v", got)
	}
	if engine.Deregister(id) != nil {
		t.Error("double deregister should be nil")
	}
}

func TestManyQueriesSharedProcessing(t *testing.T) {
	acc := acc2(t)
	// Queries sharing the Boolean clause but with different ranges.
	queries := make([]core.Query, 8)
	for i := range queries {
		q := carQuery()
		q.Range = &core.RangeCond{Lo: []int64{int64(i % 4)}, Hi: []int64{int64(8 + i%4)}}
		queries[i] = q
	}
	match := func(i int) bool { return i == 2 }
	fIP := run(t, acc, Options{UseIPTree: true}, 4, match, queries...)
	fNIP := run(t, acc, Options{}, 4, match, queries...)

	for qid := range queries {
		rIP, _ := verifyAll(t, fIP, acc, queries[qid], qid)
		rNIP, _ := verifyAll(t, fNIP, acc, queries[qid], qid)
		if rIP != rNIP {
			t.Errorf("query %d: ip results %d != nip results %d", qid, rIP, rNIP)
		}
	}
}

func TestMixedSubscriptions(t *testing.T) {
	acc := acc2(t)
	q1 := carQuery()
	q2 := core.Query{Bool: core.CNF{core.KeywordClause("bmw")}, Width: testWidth}
	match := func(i int) bool { return i%2 == 0 }
	f := run(t, acc, Options{UseIPTree: true}, 4, match, q1, q2)
	r1, _ := verifyAll(t, f, acc, q1, 0)
	r2, _ := verifyAll(t, f, acc, q2, 1)
	if r1 != 2 { // blocks 0, 2
		t.Errorf("q1 results = %d, want 2", r1)
	}
	if r2 != 4 { // every block has a bmw van
		t.Errorf("q2 results = %d, want 4", r2)
	}
}

func TestRegisterRejectsEmptyQuery(t *testing.T) {
	acc := acc2(t)
	engine := NewEngine(acc, Options{Proofs: newProofs(acc)})
	if _, err := engine.Register(core.Query{}); err == nil {
		t.Error("empty query accepted")
	}
}

func TestProcessBlockNoSubscriptions(t *testing.T) {
	acc := acc2(t)
	b := &core.Builder{Acc: acc, Mode: core.ModeIntra, Width: testWidth}
	node := core.NewFullNode(0, b)
	if _, err := node.MineBlock(rentalObjects(0, true), 1); err != nil {
		t.Fatal(err)
	}
	engine := NewEngine(acc, Options{Proofs: newProofs(acc)})
	pubs, err := engine.ProcessBlock(adsAt(t, node, 0), node)
	if err != nil || pubs != nil {
		t.Errorf("want no-op, got %v, %v", pubs, err)
	}
}

// adsAt fetches a committed height's ADS, failing the test on a
// page-in error or absence.
func adsAt(t testing.TB, node *core.FullNode, h int) *core.BlockADS {
	t.Helper()
	ads, err := node.ADSAt(h)
	if err != nil {
		t.Fatal(err)
	}
	if ads == nil {
		t.Fatalf("no ADS at height %d", h)
	}
	return ads
}

func TestLazyWithAcc1FallsBackToFreshProofs(t *testing.T) {
	// acc1 cannot ProofSum; lazy mode must still work via fresh skip
	// proofs.
	acc := acc1(t)
	match := func(i int) bool { return i == 7 }
	f := run(t, acc, Options{LazyThreshold: DefaultLazyThreshold}, 8, match, carQuery())
	results, covered := verifyAll(t, f, acc, carQuery(), 0)
	if results != 1 {
		t.Errorf("results = %d, want 1", results)
	}
	if len(covered) != 8 {
		t.Errorf("covered %d heights, want 8", len(covered))
	}
}

func TestPublicationSpansAreContiguous(t *testing.T) {
	acc := acc2(t)
	match := func(i int) bool { return i%4 == 1 }
	f := run(t, acc, Options{LazyThreshold: DefaultLazyThreshold}, 12, match, carQuery())
	last := -1
	for _, pub := range f.pubs[0] {
		if pub.From != last+1 {
			t.Fatalf("gap: publication starts at %d after %d", pub.From, last)
		}
		if pub.To < pub.From {
			t.Fatalf("inverted span [%d,%d]", pub.From, pub.To)
		}
		last = pub.To
	}
	if last != 11 {
		// The final blocks may be pending; flush and re-check.
		if pub := f.engine.Deregister(0); pub != nil {
			if pub.From != last+1 {
				t.Fatalf("flush gap: %d after %d", pub.From, last)
			}
			last = pub.To
		}
	}
	if last != 11 {
		t.Fatalf("coverage ends at %d, want 11", last)
	}
}

// TestRegistrationChurnRegroupsClauses interleaves Register and
// Deregister with blocks over subscriptions that share clauses. After
// every block each live subscription's publication must encode to the
// same bytes as from a fresh engine holding only the live
// subscriptions, registered in id order: the cached clause groups never
// outlive a registration change.
func TestRegistrationChurnRegroupsClauses(t *testing.T) {
	// A wider hash domain than acc2(t)'s: no keyword of the corpus
	// collides with a query keyword.
	acc := accumulator.KeyGenCon2Deterministic(pairing.Toy(), 4096, accumulator.HashEncoder{Q: 4096}, []byte("churn"))
	node := core.NewFullNode(0, &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: 2, Width: testWidth})
	engine := NewEngine(acc, Options{UseIPTree: true, Proofs: newProofs(acc)})
	light := chain.NewLightStore(0)
	ver := &core.Verifier{Acc: acc, Light: light}

	live := map[int]core.Query{}
	register := func(q core.Query) int {
		t.Helper()
		id, err := engine.Register(q)
		if err != nil {
			t.Fatal(err)
		}
		live[id] = q
		return id
	}
	deregister := func(id int) {
		t.Helper()
		if pub := engine.Deregister(id); pub != nil {
			t.Fatalf("eager subscription %d left a pending span", id)
		}
		delete(live, id)
	}
	block := func(h int, match bool) {
		t.Helper()
		if _, err := node.MineBlock(rentalObjects(h, match), int64(h)); err != nil {
			t.Fatal(err)
		}
		ads := adsAt(t, node, h)
		pubs, err := engine.ProcessBlock(ads, node)
		if err != nil {
			t.Fatal(err)
		}
		ids := slices.Sorted(maps.Keys(live))
		fresh := NewEngine(acc, Options{UseIPTree: true, Proofs: newProofs(acc)})
		for _, id := range ids {
			if _, err := fresh.Register(live[id]); err != nil {
				t.Fatal(err)
			}
		}
		want, err := fresh.ProcessBlock(ads, node)
		if err != nil {
			t.Fatal(err)
		}
		if len(pubs) != len(ids) || len(want) != len(ids) {
			t.Fatalf("block %d: %d publications, fresh engine %d, want one per live subscription %v",
				h, len(pubs), len(want), ids)
		}
		if err := light.Sync(node.Store.Headers()); err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			p := &pubs[i]
			if p.QueryID != id || p.From != h || p.To != h {
				t.Fatalf("block %d: publication %d is q%d [%d,%d], want q%d [%d,%d]", h, i, p.QueryID, p.From, p.To, id, h, h)
			}
			if !bytes.Equal(core.EncodeVO(acc, p.VO), core.EncodeVO(acc, want[i].VO)) {
				t.Errorf("block %d: q%d's publication differs from a fresh engine's", h, id)
			}
			if _, err := VerifyPublication(ver, live[id], p); err != nil {
				t.Fatalf("block %d: q%d rejected: %v", h, id, err)
			}
		}
	}

	car := carQuery()
	sedan := core.Query{Bool: core.CNF{core.KeywordClause("sedan")}, Width: testWidth}
	coupe := core.Query{Bool: core.CNF{core.KeywordClause("coupe", "benz")}, Width: testWidth}
	suvCoupe := core.Query{Bool: core.CNF{core.KeywordClause("suv"), core.KeywordClause("coupe", "benz")}, Width: testWidth}
	pricedBMW := core.Query{Range: car.Range, Bool: core.CNF{core.KeywordClause("bmw")}, Width: testWidth}
	vanBenz := core.Query{Bool: core.CNF{core.KeywordClause("van"), core.KeywordClause("benz", "bmw")}, Width: testWidth}

	a := register(car)
	b := register(sedan) // shares {sedan} with a
	register(coupe)
	block(0, true)
	// Block 1 misses both of suvCoupe's clauses. Only as a member of
	// coupe's group does it cite the wider {benz, coupe}; on its own it
	// would cite the smaller {suv}.
	register(suvCoupe)
	block(1, false)
	c := register(pricedBMW) // shares a's range clause
	block(2, false)
	deregister(a)
	block(3, true)
	d := register(vanBenz) // shares {benz, bmw} with the next one
	register(car)
	block(4, false)
	deregister(b)
	deregister(c)
	block(5, true)
	deregister(d)
	register(sedan)
	block(6, false)
}

// TestRegistrationConcurrentWithBlocks registers and deregisters from
// one goroutine while another processes blocks: the cached clause
// groups are shared between the two, so run it under -race.
func TestRegistrationConcurrentWithBlocks(t *testing.T) {
	acc := acc2(t)
	node := core.NewFullNode(0, &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: 2, Width: testWidth})
	engine := NewEngine(acc, Options{UseIPTree: true, Proofs: newProofs(acc)})
	if _, err := engine.Register(carQuery()); err != nil {
		t.Fatal(err)
	}
	const blocks = 6
	for h := 0; h < blocks; h++ {
		if _, err := node.MineBlock(rentalObjects(h, h%2 == 0), int64(h)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		for h := 0; h < blocks; h++ {
			ads, err := node.ADSAt(h)
			if err == nil {
				_, err = engine.ProcessBlock(ads, node)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	sedan := core.Query{Bool: core.CNF{core.KeywordClause("sedan")}, Width: testWidth}
	for i := 0; i < 3*blocks; i++ {
		id, err := engine.Register(sedan)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			engine.Deregister(id)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestClauseGroupsGlobal pins the engine's clause groups over the four
// queries of Fig. 8 (a 2-D 2-bit space): one group per distinct clause
// of the full CNFs, members in id order, ordered by fanout descending,
// then clause length ascending, then key; cached until a registration
// change.
func TestClauseGroupsGlobal(t *testing.T) {
	acc := acc2(t)
	engine := NewEngine(acc, Options{UseIPTree: true, Proofs: newProofs(acc)})
	mk := func(lo, hi []int64, kws ...core.Clause) core.Query {
		return core.Query{Range: &core.RangeCond{Lo: lo, Hi: hi}, Bool: kws, Width: 2}
	}
	for _, q := range []core.Query{
		mk([]int64{0, 2}, []int64{1, 3}, core.KeywordClause("van"), core.KeywordClause("benz")),
		mk([]int64{0, 0}, []int64{1, 3}, core.KeywordClause("van"), core.KeywordClause("bmw")),
		mk([]int64{0, 2}, []int64{0, 2}, core.KeywordClause("sedan"), core.KeywordClause("audi")),
		mk([]int64{2, 0}, []int64{3, 3}, core.KeywordClause("sedan"), core.KeywordClause("benz")),
	} {
		if _, err := engine.Register(q); err != nil {
			t.Fatal(err)
		}
	}
	groups := engine.clauseGroups()
	byKey := map[string][]int{}
	for i, g := range groups {
		byKey[g.Clause.Key()] = g.Queries
		if !slices.IsSorted(g.Queries) {
			t.Errorf("group %v members %v out of id order", g.Clause, g.Queries)
		}
		if i > 0 && compareGroups(groups[i-1], g) >= 0 {
			t.Errorf("group %d (%v) sorts before group %d (%v)", i, g.Clause, i-1, groups[i-1].Clause)
		}
	}
	for kw, want := range map[string][]int{
		"van": {0, 1}, "benz": {0, 3}, "sedan": {2, 3}, "bmw": {1}, "audi": {2},
	} {
		if got := byKey[core.KeywordClause(kw).Key()]; !slices.Equal(got, want) {
			t.Errorf("{%s} shared by %v, want %v", kw, got, want)
		}
	}
	// x ∈ [0, 1] is one prefix, shared by q0 and q1.
	x01, err := core.RangeClauses([]int64{0}, []int64{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := byKey[x01[0].Key()]; !slices.Equal(got, []int{0, 1}) {
		t.Errorf("x ∈ [0, 1] shared by %v, want [0 1]", got)
	}
	if groups[0].Clause.Key() != x01[0].Key() {
		t.Errorf("widest group is %v, want the shortest two-member clause x ∈ [0, 1]", groups[0].Clause)
	}

	if &engine.clauseGroups()[0] != &groups[0] {
		t.Error("clause groups rebuilt without a registration change")
	}
	engine.Deregister(0)
	for _, g := range engine.clauseGroups() {
		if slices.Contains(g.Queries, 0) {
			t.Fatalf("deregistered q0 still in group %v", g.Clause)
		}
	}
	id, err := engine.Register(core.Query{Bool: core.CNF{core.KeywordClause("van")}, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range engine.clauseGroups() {
		if g.Clause.Equal(core.KeywordClause("van")) && !slices.Equal(g.Queries, []int{1, id}) {
			t.Fatalf("{van} groups %v after registering q%d, want [1 %d]", g.Queries, id, id)
		}
	}
}

func TestPublicationTamperingCaught(t *testing.T) {
	acc := acc2(t)
	match := func(i int) bool { return true }
	f := run(t, acc, Options{}, 2, match, carQuery())
	ver := &core.Verifier{Acc: acc, Light: f.light}
	pub := f.pubs[0][0]
	// Claim a wider span than the VO covers.
	pub.From--
	if _, err := VerifyPublication(ver, carQuery(), &pub); err == nil {
		t.Fatal("span inflation accepted")
	}
}

func ExampleEngine() {
	// Compact walkthrough: a subscription receives a verifiable
	// publication for a block containing a match.
	pr := pairing.Toy()
	acc := accumulator.KeyGenCon2Deterministic(pr, 512, accumulator.HashEncoder{Q: 512}, []byte("ex"))
	builder := &core.Builder{Acc: acc, Mode: core.ModeIntra, Width: 4}
	node := core.NewFullNode(0, builder)
	engine := NewEngine(acc, Options{Proofs: proofs.New(acc, proofs.Options{})})

	q := core.Query{Bool: core.CNF{core.KeywordClause("sedan")}, Width: 4}
	id, _ := engine.Register(q)

	node.MineBlock([]chain.Object{
		{ID: 1, TS: 1, V: []int64{4}, W: []string{"sedan", "benz"}},
	}, 1)
	ads, _ := node.ADSAt(0)
	pubs, _ := engine.ProcessBlock(ads, node)

	light := chain.NewLightStore(0)
	light.Sync(node.Store.Headers())
	objs, err := VerifyPublication(&core.Verifier{Acc: acc, Light: light}, q, &pubs[0])
	fmt.Println(id, len(objs), err)
	// Output: 0 1 <nil>
}
