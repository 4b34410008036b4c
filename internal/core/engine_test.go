package core

import (
	"context"
	"testing"

	"github.com/vchain-go/vchain/internal/proofs"
)

// TestEngineVOEquivalence checks that VOs produced through a shared,
// cache-warm proof engine are byte-for-byte equivalent (size and
// verification) to VOs produced by a fresh, uncached engine.
func TestEngineVOEquivalence(t *testing.T) {
	for accName, acc := range testAccs(t) {
		t.Run(accName, func(t *testing.T) {
			node, light := buildTestChain(t, acc, ModeBoth, 6)
			q := sedanBenzQuery(0, 5)
			ver := &Verifier{Acc: acc, Light: light}

			// Reference: a fresh uncached engine.
			ref, err := (&SP{Acc: acc, View: node, Engine: proofs.New(acc, proofs.Options{CacheSize: -1})}).TimeWindowQuery(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			refRes, err := ver.VerifyTimeWindow(q, ref)
			if err != nil {
				t.Fatal(err)
			}

			// Shared engine, queried twice: the second run is served
			// almost entirely from the cache.
			eng := proofs.New(acc, proofs.Options{})
			sp := &SP{Acc: acc, View: node, Engine: eng}
			if _, err := sp.TimeWindowQuery(context.Background(), q); err != nil {
				t.Fatal(err)
			}
			warm, err := sp.TimeWindowQuery(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			warmRes, err := ver.VerifyTimeWindow(q, warm)
			if err != nil {
				t.Fatalf("cache-warm VO rejected: %v", err)
			}
			if len(refRes) != len(warmRes) {
				t.Fatalf("results differ: %d vs %d", len(refRes), len(warmRes))
			}
			for i := range refRes {
				if refRes[i].ID != warmRes[i].ID {
					t.Fatal("result order differs")
				}
			}
			if ref.SizeBytes(acc) != warm.SizeBytes(acc) {
				t.Fatalf("VO sizes differ: %d vs %d", ref.SizeBytes(acc), warm.SizeBytes(acc))
			}
			st := eng.Stats()
			if st.CacheHits == 0 {
				t.Fatalf("repeated window produced no cache hits: %+v", st)
			}
		})
	}
}

// TestBatchedEngineEquivalence repeats the check for the §6.3 batched
// path (aggregated groups must survive caching and parallelism).
func TestBatchedEngineEquivalence(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeIntra, 4)
	q := sedanBenzQuery(0, 3)
	ver := &Verifier{Acc: acc, Light: light}

	eng := proofs.New(acc, proofs.Options{})
	sp := &SP{Acc: acc, View: node, Batch: true, Engine: eng}
	var sizes []int
	for i := 0; i < 2; i++ {
		vo, err := sp.TimeWindowQuery(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(vo.Groups) == 0 {
			t.Fatal("batching lost under engine")
		}
		if _, err := ver.VerifyTimeWindow(q, vo); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, vo.SizeBytes(acc))
	}
	if sizes[0] != sizes[1] {
		t.Fatalf("cold/warm batched VO sizes differ: %v", sizes)
	}
	if st := eng.Stats(); st.AggGroups == 0 {
		t.Fatalf("no aggregation groups counted: %+v", st)
	}
}

// BenchmarkRepeatedWindowQuery is the repeated-window workload of the
// issue: the same time-window query answered again and again, as a
// popular dashboard would. With the shared engine the steady state is
// served from the proof cache; with caching disabled every proof is
// recomputed. The hit% metric is Engine.Stats().HitRate.
func BenchmarkRepeatedWindowQuery(b *testing.B) {
	accs := testAccs(b)
	acc := accs["acc2"]
	node, light := buildTestChain(b, acc, ModeBoth, 8)
	q := sedanBenzQuery(0, 7)
	ver := &Verifier{Acc: acc, Light: light}

	for _, cfg := range []struct {
		name  string
		cache int
	}{
		{"nocache", -1},
		{"cached", 0},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			eng := proofs.New(acc, proofs.Options{CacheSize: cfg.cache})
			sp := &SP{Acc: acc, View: node, Engine: eng}
			// Warm once so both variants measure steady state.
			vo, err := sp.TimeWindowQuery(context.Background(), q)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ver.VerifyTimeWindow(q, vo); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sp.TimeWindowQuery(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(eng.Stats().HitRate()*100, "hit%")
		})
	}
}
