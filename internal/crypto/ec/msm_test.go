package ec

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/ff"
)

// msmReference is the trusted slow path: Σ k_i·P_i by affine
// double-and-add and affine additions, written against Double/Add only.
func msmReference(c *Curve, points []Point, scalars []*big.Int) Point {
	acc := c.Infinity()
	for i := range points {
		k := scalars[i]
		if k == nil {
			continue
		}
		p := points[i]
		if k.Sign() < 0 {
			p = c.Neg(p)
			k = new(big.Int).Neg(k)
		}
		term := c.Infinity()
		for b := k.BitLen() - 1; b >= 0; b-- {
			term = c.Double(term)
			if k.Bit(b) == 1 {
				term = c.Add(term, p)
			}
		}
		acc = c.Add(acc, term)
	}
	return acc
}

func TestMSMMatchesNaive(t *testing.T) {
	c := testCurve(t)
	rng := rand.New(rand.NewSource(51))
	base := findPoint(t, c)
	// Sweep sizes across every window-size bucket, crossing the n >
	// window-threshold boundaries of msmWindowBits.
	for _, n := range []int{0, 1, 2, 3, 5, 17, 33, 70, 150} {
		pts := make([]Point, n)
		ks := make([]*big.Int, n)
		for i := range pts {
			pts[i] = c.ScalarMul(base, big.NewInt(int64(rng.Intn(1000)+1)))
			ks[i] = big.NewInt(int64(rng.Intn(1 << 16)))
		}
		got := c.MultiScalarMul(pts, ks)
		want := msmReference(c, pts, ks)
		if !got.Equal(want) {
			t.Fatalf("n=%d: MSM %v != naive %v", n, got, want)
		}
	}
}

// TestMSMEnginesAgreeOnWideScalars runs 64-bit scalars, the width at
// which MultiScalarMulShort may pick the Straus method, through both
// engines directly and through both entry points. The test curve has
// small-order points, so some odd-multiple table entries are infinity.
func TestMSMEnginesAgreeOnWideScalars(t *testing.T) {
	c := testCurve(t)
	rng := rand.New(rand.NewSource(53))
	base := findPoint(t, c)
	for _, n := range []int{2, 3, 4, 12, 40} {
		pts := make([]Point, n)
		ks := make([]*big.Int, n)
		for i := range pts {
			pts[i] = c.ScalarMul(base, big.NewInt(int64(rng.Intn(1000)+1)))
			ks[i] = new(big.Int).SetUint64(rng.Uint64() | 1<<63)
		}
		want := msmReference(c, pts, ks)
		if got := c.MultiScalarMul(pts, ks); !got.Equal(want) {
			t.Fatalf("n=%d: MultiScalarMul %v != naive %v", n, got, want)
		}
		if got := c.MultiScalarMulShort(pts, ks); !got.Equal(want) {
			t.Fatalf("n=%d: MultiScalarMulShort %v != naive %v", n, got, want)
		}
		if got := c.msmStraus(pts, ks, 64); !got.Equal(want) {
			t.Fatalf("n=%d: Straus %v != naive %v", n, got, want)
		}
		if got := c.msmPippenger(pts, ks, 64); !got.Equal(want) {
			t.Fatalf("n=%d: Pippenger %v != naive %v", n, got, want)
		}
	}
}

func TestMSMEdgeCases(t *testing.T) {
	c := testCurve(t)
	base := findPoint(t, c)
	p2 := c.Double(base)

	cases := []struct {
		name    string
		points  []Point
		scalars []*big.Int
	}{
		{"empty", nil, nil},
		{"single", []Point{base}, []*big.Int{big.NewInt(7)}},
		{"zero-scalars", []Point{base, p2}, []*big.Int{new(big.Int), new(big.Int)}},
		{"nil-scalar", []Point{base, p2}, []*big.Int{nil, big.NewInt(3)}},
		{"infinity-points", []Point{c.Infinity(), base, c.Infinity()},
			[]*big.Int{big.NewInt(5), big.NewInt(3), big.NewInt(11)}},
		{"negative", []Point{base, p2}, []*big.Int{big.NewInt(-9), big.NewInt(4)}},
		{"cancelling", []Point{base, base}, []*big.Int{big.NewInt(6), big.NewInt(-6)}},
		{"duplicate-points", []Point{base, base, base},
			[]*big.Int{big.NewInt(3), big.NewInt(3), big.NewInt(3)}},
		{"wide-scalar", []Point{base, p2},
			[]*big.Int{new(big.Int).Lsh(big.NewInt(1), 200), big.NewInt(1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := c.MultiScalarMul(tc.points, tc.scalars)
			want := msmReference(c, tc.points, tc.scalars)
			if !got.Equal(want) {
				t.Fatalf("MSM %v != naive %v", got, want)
			}
		})
	}
}

func TestMSMLengthMismatchPanics(t *testing.T) {
	c := testCurve(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	c.MultiScalarMul([]Point{c.Infinity()}, nil)
}

// TestMSMParallelWindows forces the parallel path (n ≥ msmParallelMin,
// several windows) and cross-checks the result.
func TestMSMParallelWindows(t *testing.T) {
	c := testCurve(t)
	rng := rand.New(rand.NewSource(53))
	base := findPoint(t, c)
	n := msmParallelMin * 2
	pts := make([]Point, n)
	ks := make([]*big.Int, n)
	for i := range pts {
		pts[i] = c.ScalarMul(base, big.NewInt(int64(rng.Intn(1000)+1)))
		k := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 64))
		ks[i] = k
	}
	got := c.MultiScalarMul(pts, ks)
	want := msmReference(c, pts, ks)
	if !got.Equal(want) {
		t.Fatalf("parallel MSM %v != naive %v", got, want)
	}
}

func TestWNAFDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, w := range []int{2, 4, 5} {
		for i := 0; i < 200; i++ {
			k := big.NewInt(int64(rng.Intn(1<<30) + 1))
			digits := wnafDigits(k, w)
			// Reconstruct Σ d_i·2^i and check digit constraints.
			sum := new(big.Int)
			half := int64(1) << (w - 1)
			for bit, d := range digits {
				if d != 0 {
					if int64(d) >= half || int64(d) <= -half || d%2 == 0 {
						t.Fatalf("w=%d k=%v: digit %d out of range or even", w, k, d)
					}
				}
				term := new(big.Int).Lsh(big.NewInt(int64(d)), uint(bit))
				sum.Add(sum, term)
			}
			if sum.Cmp(k) != 0 {
				t.Fatalf("w=%d: wNAF reconstructs %v, want %v", w, sum, k)
			}
		}
	}
}

// TestScalarMulWNAFAcrossWidths exercises every wnafWidthFor bucket.
func TestScalarMulWNAFAcrossWidths(t *testing.T) {
	c := testCurve(t)
	base := findPoint(t, c)
	ks := []*big.Int{
		big.NewInt(1), big.NewInt(2), big.NewInt(3), big.NewInt(255),
		big.NewInt(256), big.NewInt(1 << 20), new(big.Int).Lsh(big.NewInt(1), 40),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 50), big.NewInt(1)),
	}
	for _, k := range ks {
		got := c.ScalarMul(base, k)
		want := msmReference(c, []Point{base}, []*big.Int{k})
		if !got.Equal(want) {
			t.Fatalf("k=%v: wNAF %v != naive %v", k, got, want)
		}
	}
}

// TestFixedBaseJacobianTable re-checks the rebuilt fixed-base tables on
// a curve whose subgroups are tiny enough to hit infinity entries.
func TestFixedBaseJacobianTable(t *testing.T) {
	c := NewCurve(ff.NewField(testP))
	// A 2-torsion base makes most table entries infinity.
	tw, err := c.NewPoint(c.F.FromInt64(-1), c.F.Zero())
	if err != nil {
		t.Skip("no 2-torsion point on this curve")
	}
	fb := NewFixedBase(c, tw, 16)
	for k := int64(0); k < 40; k++ {
		if got, want := fb.Mul(big.NewInt(k)), c.ScalarMul(tw, big.NewInt(k)); !got.Equal(want) {
			t.Fatalf("2-torsion base, k=%d: %v != %v", k, got, want)
		}
	}
}
