package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples. A percentile is only as good as the samples beyond it: it
// refuses one with fewer than ten samples above its rank, except the
// median, which needs ten samples in all.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("percentile %g out of range", p)
	}
	if n < 10 {
		return 0, fmt.Errorf("p%g needs at least 10 samples, have %d", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < 10 {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it, need 10", p, n, n-rank)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median returns the middle of samples (mean of the two middles for an
// even count), or 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 — for per-operation averages of
// counters that a workload may not touch at all.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// worseBy is the share of base by which got is worse, given which
// direction is better; negative when got is better.
func worseBy(better string, base, got float64) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - got) / base
	}
	return (got - base) / base
}
