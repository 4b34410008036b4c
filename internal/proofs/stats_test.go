package proofs

import (
	"math"
	"testing"
)

// TestHitRateIdleEngine: HitRate on an idle engine (zero lookups) must
// be exactly 0.0 — an unguarded division would return NaN, which
// poisons Prometheus gauges and the vchain-sp shutdown report.
func TestHitRateIdleEngine(t *testing.T) {
	var zero Stats
	if r := zero.HitRate(); r != 0.0 {
		t.Fatalf("zero Stats HitRate = %v, want 0.0", r)
	}
	if math.IsNaN(zero.HitRate()) {
		t.Fatal("zero Stats HitRate is NaN")
	}
}

// TestHitRateNonZero sanity-checks the guarded path still computes the
// real ratio once lookups exist.
func TestHitRateNonZero(t *testing.T) {
	s := Stats{CacheHits: 3, CacheMisses: 1}
	if r := s.HitRate(); r != 0.75 {
		t.Fatalf("HitRate = %v, want 0.75", r)
	}
}
