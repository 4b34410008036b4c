package main

import (
	"math/big"
	"sync"
	"time"
)

// The sandbox this benchmark runs in shares its host: for minutes at a
// time every instruction can take up to twice as long, for reasons
// that have nothing to do with the code under test. No run length that
// fits the time cap averages that out, so the benchmark measures the
// host's speed while it measures the program, and reports times as
// they would have been at a fixed reference speed.
//
// The probe is a fixed chain of 512-bit modular multiplications on
// math/big — the kind of work the program spends its time on, but none
// of the program's code. It runs on the driving goroutine between
// operations, when the system under test is idle, so what it measures
// is the host and not contention with the workload.
const (
	probeMuls = 2400
	// probeNominal is what one probe takes on the reference machine (the
	// 2-core sandbox this benchmark was calibrated on, when quiet).
	probeNominal = time.Millisecond
	// probeEvery is the least time between two probes of a timed phase:
	// about 2 % of the phase goes into probing.
	probeEvery = 50 * time.Millisecond
)

// probe collects host-speed samples.
type probe struct {
	mu      sync.Mutex
	last    time.Time
	samples []float64 // ms per probe
	x, y, p *big.Int
	z, q    *big.Int
}

func newProbe() *probe {
	p := new(big.Int).Lsh(big.NewInt(1), 511)
	p.Sub(p, big.NewInt(569)) // any fixed odd 512-bit modulus will do
	x := new(big.Int).Exp(big.NewInt(3), big.NewInt(300), p)
	y := new(big.Int).Exp(big.NewInt(5), big.NewInt(210), p)
	return &probe{x: x, y: y, p: p, z: new(big.Int), q: new(big.Int)}
}

// run takes one sample now.
func (pr *probe) run() {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	t0 := time.Now()
	z := pr.z.Set(pr.x)
	for i := 0; i < probeMuls; i++ {
		z.Mul(z, pr.y)
		pr.q.QuoRem(z, pr.p, z)
	}
	pr.last = time.Now()
	pr.samples = append(pr.samples, ms(pr.last.Sub(t0)))
}

// burst takes a handful of samples in a row, around something too long
// to probe inside of.
func (pr *probe) burst() {
	for i := 0; i < 8; i++ {
		pr.run()
	}
}

// tick takes a sample if the last one is older than probeEvery. Callers
// call it between operations, with nothing in flight.
func (pr *probe) tick() {
	pr.mu.Lock()
	due := time.Since(pr.last) >= probeEvery
	pr.mu.Unlock()
	if due {
		pr.run()
	}
}

// take returns the median of the samples since the last take, in ms,
// and forgets them.
func (pr *probe) take() float64 {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	m := median(pr.samples)
	pr.samples = nil
	return m
}

// scale is the factor that turns a time measured while the probe took
// probeMs into the time at reference speed.
func scale(probeMs float64) float64 {
	if probeMs <= 0 {
		return 1
	}
	return ms(probeNominal) / probeMs
}
