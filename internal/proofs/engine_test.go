package proofs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/multiset"
)

func testAcc(t testing.TB) accumulator.Accumulator {
	t.Helper()
	pr := pairing.Toy()
	return accumulator.KeyGenCon2Deterministic(pr, 512, accumulator.HashEncoder{Q: 512}, []byte("proofs"))
}

// key mimics core.Clause.Key for a keyword clause.
func key(words ...string) string {
	out := ""
	for i, w := range words {
		if i > 0 {
			out += "\x00"
		}
		out += w
	}
	return out
}

func verify(t *testing.T, acc accumulator.Accumulator, w, cw multiset.Multiset, pf accumulator.Proof) {
	t.Helper()
	aw, err := acc.Setup(w)
	if err != nil {
		t.Fatal(err)
	}
	acw, err := acc.Setup(cw)
	if err != nil {
		t.Fatal(err)
	}
	if !acc.VerifyDisjoint(aw, acw, pf) {
		t.Fatal("cached/computed proof does not verify")
	}
}

// proveOne proves one pair on a run of its own.
func proveOne(e *Engine, w multiset.Multiset, clauseKey string, cw multiset.Multiset) (pf accumulator.Proof, err error) {
	run := e.NewRun()
	run.Add(w, clauseKey, cw, func(p accumulator.Proof) { pf = p })
	err = run.WaitCtx(context.Background())
	return pf, err
}

func TestProveCachesRepeatedPairs(t *testing.T) {
	acc := testAcc(t)
	e := New(acc, Options{})
	w := multiset.New("sedan", "benz")
	cw := multiset.New("van")

	pf1, err := proveOne(e, w, key("van"), cw)
	if err != nil {
		t.Fatal(err)
	}
	// An equal multiset built differently must hit the same entry.
	w2 := multiset.New("benz", "sedan")
	pf2, err := proveOne(e, w2, key("van"), cw)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, acc, w, cw, pf1)
	verify(t, acc, w2, cw, pf2)

	st := e.Stats()
	if st.Proofs != 1 || st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("stats %+v, want 1 proof / 1 miss / 1 hit", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", got)
	}

	// A different clause with the same multiset is a distinct entry.
	if _, err := proveOne(e, w, key("audi"), multiset.New("audi")); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Proofs != 2 {
		t.Fatalf("distinct clause reused a cached proof: %+v", st)
	}
}

func TestProveErrorsAreNotCached(t *testing.T) {
	e := New(testAcc(t), Options{})
	w := multiset.New("sedan")
	cw := multiset.New("sedan") // not disjoint: must fail
	if _, err := proveOne(e, w, key("sedan"), cw); !errors.Is(err, accumulator.ErrNotDisjoint) {
		t.Fatalf("want ErrNotDisjoint, got %v", err)
	}
	if _, err := proveOne(e, w, key("sedan"), cw); !errors.Is(err, accumulator.ErrNotDisjoint) {
		t.Fatalf("want ErrNotDisjoint again, got %v", err)
	}
	st := e.Stats()
	if st.Proofs != 2 || st.Errors != 2 || st.CacheHits != 0 {
		t.Fatalf("failed proofs must recompute, stats %+v", st)
	}
}

func TestCacheEviction(t *testing.T) {
	e := New(testAcc(t), Options{CacheSize: 2})
	cw := multiset.New("van")
	pairs := []multiset.Multiset{
		multiset.New("a"), multiset.New("b"), multiset.New("c"),
	}
	for _, w := range pairs {
		if _, err := proveOne(e, w, key("van"), cw); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Evictions != 1 {
		t.Fatalf("want 1 eviction, stats %+v", st)
	}
	// "a" was evicted (LRU): proving it again recomputes.
	if _, err := proveOne(e, pairs[0], key("van"), cw); err != nil {
		t.Fatal(err)
	}
	// "c" is still resident.
	if _, err := proveOne(e, pairs[2], key("van"), cw); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Proofs != 4 || st.CacheHits != 1 {
		t.Fatalf("eviction behavior off: %+v", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	e := New(testAcc(t), Options{CacheSize: -1})
	w, cw := multiset.New("sedan"), multiset.New("van")
	for i := 0; i < 3; i++ {
		if _, err := proveOne(e, w, key("van"), cw); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Proofs != 3 || st.CacheHits != 0 {
		t.Fatalf("disabled cache must always compute: %+v", st)
	}
}

// TestConcurrentProveSingleFlight hammers one (w, clause) pair from
// many goroutines: exactly one computation may happen.
func TestConcurrentProveSingleFlight(t *testing.T) {
	acc := testAcc(t)
	e := New(acc, Options{Workers: 4})
	w, cw := multiset.New("sedan", "benz"), multiset.New("van")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pf, err := proveOne(e, w, key("van"), cw)
			if err != nil {
				t.Error(err)
				return
			}
			verify(t, acc, w, cw, pf)
		}()
	}
	wg.Wait()
	if st := e.Stats(); st.Proofs != 1 {
		t.Fatalf("single-flight failed: %d computations", st.Proofs)
	}
}

// TestConcurrentProveMixed runs distinct and duplicate pairs from many
// goroutines under -race.
func TestConcurrentProveMixed(t *testing.T) {
	acc := testAcc(t)
	e := New(acc, Options{Workers: 4, CacheSize: 8})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := multiset.New(fmt.Sprintf("elt%d", i%10))
			cw := multiset.New("van")
			pf, err := proveOne(e, w, key("van"), cw)
			if err != nil {
				t.Error(err)
				return
			}
			verify(t, acc, w, cw, pf)
		}()
	}
	wg.Wait()
}

func TestRunAssignsAllTasks(t *testing.T) {
	acc := testAcc(t)
	for _, workers := range []int{1, 4} {
		e := New(acc, Options{Workers: workers})
		run := e.NewRun()
		const n = 9
		got := make([]accumulator.Proof, n)
		ws := make([]multiset.Multiset, n)
		for i := 0; i < n; i++ {
			i := i
			ws[i] = multiset.New(fmt.Sprintf("elt%d", i%3)) // duplicates dedupe
			run.Add(ws[i], key("van"), multiset.New("van"), func(pf accumulator.Proof) { got[i] = pf })
		}
		if run.Len() != n {
			t.Fatalf("run length %d", run.Len())
		}
		if err := run.WaitCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			verify(t, acc, ws[i], multiset.New("van"), got[i])
		}
		// 3 distinct pairs → exactly 3 computations.
		if st := e.Stats(); st.Proofs != 3 {
			t.Fatalf("workers=%d: %d computations, want 3", workers, st.Proofs)
		}
		// An exhausted run is reusable and a no-op.
		if err := run.WaitCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunFirstErrorWins(t *testing.T) {
	acc := testAcc(t)
	e := New(acc, Options{Workers: 2})
	run := e.NewRun()
	var okPf accumulator.Proof
	assigned := false
	run.Add(multiset.New("sedan"), key("sedan"), multiset.New("sedan"), func(pf accumulator.Proof) {
		t.Error("assign called for failing task")
	})
	run.Add(multiset.New("sedan"), key("van"), multiset.New("van"), func(pf accumulator.Proof) {
		okPf = pf
		assigned = true
	})
	err := run.WaitCtx(context.Background())
	if !errors.Is(err, accumulator.ErrNotDisjoint) {
		t.Fatalf("want ErrNotDisjoint, got %v", err)
	}
	if !assigned {
		t.Fatal("successful task must still assign")
	}
	verify(t, acc, multiset.New("sedan"), multiset.New("van"), okPf)
}

func TestAggregatorGroupOrdering(t *testing.T) {
	acc := testAcc(t)
	e := New(acc, Options{})
	a := e.NewAggregator()

	// Insertion order: van, audi, van, bmw → groups 0, 1, 0, 2.
	wantIdx := []int{0, 1, 0, 2}
	adds := []struct {
		k  string
		cw multiset.Multiset
		w  multiset.Multiset
	}{
		{key("van"), multiset.New("van"), multiset.New("sedan")},
		{key("audi"), multiset.New("audi"), multiset.New("benz")},
		{key("van"), multiset.New("van"), multiset.New("sedan", "benz")},
		{key("bmw"), multiset.New("bmw"), multiset.New("sedan")},
	}
	for i, ad := range adds {
		if idx := a.Add(ad.k, ad.w, ad.cw); idx != wantIdx[i] {
			t.Fatalf("add %d: group %d, want %d", i, idx, wantIdx[i])
		}
	}
	if a.Len() != 3 {
		t.Fatalf("len %d, want 3", a.Len())
	}

	proofs := make([]accumulator.Proof, 3)
	seen := make([]bool, 3)
	run := e.NewRun()
	a.Finalize(run, func(i int, pf accumulator.Proof) {
		proofs[i] = pf
		seen[i] = true
	})
	if err := run.WaitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("group %d unproved", i)
		}
	}
	// Group 0 proves the *sum* of its members' multisets.
	verify(t, acc, multiset.Sum(multiset.New("sedan"), multiset.New("sedan", "benz")),
		multiset.New("van"), proofs[0])
	verify(t, acc, multiset.New("benz"), multiset.New("audi"), proofs[1])
	verify(t, acc, multiset.New("sedan"), multiset.New("bmw"), proofs[2])

	if st := e.Stats(); st.AggGroups != 3 {
		t.Fatalf("AggGroups %d, want 3", st.AggGroups)
	}
}

// BenchmarkProve measures the cache-hit speedup on a repeated
// (multiset, clause) pair: cold proves every iteration, warm serves
// from the LRU.
func BenchmarkProve(b *testing.B) {
	acc := testAcc(b)
	w := multiset.New("sedan", "benz", "coupe", "red")
	cw := multiset.New("van")
	b.Run("cold", func(b *testing.B) {
		e := New(acc, Options{CacheSize: -1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := proveOne(e, w, key("van"), cw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		e := New(acc, Options{})
		if _, err := proveOne(e, w, key("van"), cw); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := proveOne(e, w, key("van"), cw); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(e.Stats().HitRate()*100, "hit%")
	})
}

// TestCacheHoldsProofBytes: an entry is the proof's canonical bytes
// under a 32-byte key, and a hit decodes them back to the proof the
// miss computed.
func TestCacheHoldsProofBytes(t *testing.T) {
	acc := testAcc(t)
	e := New(acc, Options{})
	w, cw := multiset.New("sedan"), multiset.New("van")
	pf, err := proveOne(e, w, key("van"), cw)
	if err != nil {
		t.Fatal(err)
	}
	ent := e.lru.Front().Value.(*cacheEntry)
	if ent.key != newCacheKey(w, key("van")) || string(ent.pf) != string(acc.ProofBytes(pf)) {
		t.Fatalf("entry %x → %x, want the proof's ProofBytes", ent.key, ent.pf)
	}
	hit, err := proveOne(e, w, key("van"), cw)
	if err != nil {
		t.Fatal(err)
	}
	if string(acc.ProofBytes(hit)) != string(ent.pf) || e.Stats().CacheHits != 1 {
		t.Fatal("cache hit did not return the computed proof")
	}
	verify(t, acc, w, cw, hit)
	if newCacheKey(w, key("van")) == newCacheKey(w, key("van", "x")) {
		t.Fatal("distinct clause keys share a cache key")
	}
}
