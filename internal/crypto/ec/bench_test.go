package ec

import (
	"crypto/sha256"
	"math/big"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/ff"
)

// benchCurve is a 256-bit curve found the same way the pairing package
// finds its parameters: p = 12k − 1 for the first prime of that form at
// or above a fixed seed, giving p ≡ 2 (mod 3) and p ≡ 3 (mod 4). The
// tiny test prime would make modular arithmetic unrealistically cheap.
func benchCurve() *Curve { return benchCurveBits(256) }

// benchCurves memoizes benchCurveBits.
var benchCurves = map[int]*Curve{}

// benchCurveBits is benchCurve at a bits-bit prime. At 512 bits the
// field has the default preset's 8 limbs, with a top limb below
// 2⁶⁴−1, so its products run the same path as every default-preset
// proof (on amd64 with BMI2 and ADX, the assembly kernel).
func benchCurveBits(bits int) *Curve {
	if c := benchCurves[bits]; c != nil {
		return c
	}
	var seed []byte
	for h := sha256.Sum256([]byte("ec/bench/prime")); len(seed) < bits/8; h = sha256.Sum256(h[:]) {
		seed = append(seed, h[:]...)
	}
	k := new(big.Int).SetBytes(seed[:bits/8])
	k.Rsh(k, 4) // a (bits−4)-bit k, so 12k has about bits bits
	p := new(big.Int)
	one := big.NewInt(1)
	twelve := big.NewInt(12)
	for {
		p.Mul(twelve, k)
		p.Sub(p, one)
		if p.ProbablyPrime(64) {
			break
		}
		k.Add(k, one)
	}
	benchCurves[bits] = NewCurve(ff.NewField(p))
	return benchCurves[bits]
}

// benchScalars derives n deterministic 160-bit scalars (the width of
// the default pairing preset's group order).
func benchScalars(n int) []*big.Int {
	out := make([]*big.Int, n)
	h := sha256.Sum256([]byte("ec/bench/scalar"))
	for i := range out {
		buf := append(h[:20:20], byte(i), byte(i>>8))
		h = sha256.Sum256(buf)
		out[i] = new(big.Int).SetBytes(h[:20])
	}
	return out
}

// benchPoints derives n deterministic curve points.
func benchPoints(c *Curve, n int) []Point {
	out := make([]Point, n)
	base := c.HashToPoint([]byte("ec/bench/point"), sha)
	ks := benchScalars(n)
	for i := range out {
		out[i] = c.ScalarMul(base, ks[i])
	}
	return out
}

// BenchmarkScalarMul measures single-point scalar multiplication with a
// 160-bit scalar on the 256-bit bench curve and on the 512-bit one,
// whose field is the default preset's size.
func BenchmarkScalarMul(b *testing.B) {
	for _, bits := range []int{256, 512} {
		c := benchCurveBits(bits)
		p := c.HashToPoint([]byte("ec/bench/base"), sha)
		k := benchScalars(1)[0]
		b.Run(sizeLabel("p", bits), func(b *testing.B) {
			for b.Loop() {
				c.ScalarMul(p, k)
			}
		})
	}
}

// msmAffineLoop is the seed's per-coefficient loop MultiScalarMul
// replaces: affine double-and-add (an inversion per group operation)
// plus one affine Add per term, exactly what Con1.commit and Con2.Setup
// used to do before the Jacobian rewrite.
func msmAffineLoop(c *Curve, points []Point, scalars []*big.Int) Point {
	acc := c.Infinity()
	for i := range points {
		term := c.Infinity()
		k := scalars[i]
		for b := k.BitLen() - 1; b >= 0; b-- {
			term = c.Double(term)
			if k.Bit(b) == 1 {
				term = c.Add(term, points[i])
			}
		}
		acc = c.Add(acc, term)
	}
	return acc
}

// msmWNAFLoop is the intermediate comparison: per-point wNAF (already
// Jacobian inside) with affine accumulation — what the consumers would
// cost with the new ScalarMul but without Pippenger batching.
func msmWNAFLoop(c *Curve, points []Point, scalars []*big.Int) Point {
	acc := c.Infinity()
	for i := range points {
		acc = c.Add(acc, c.ScalarMul(points[i], scalars[i]))
	}
	return acc
}

// BenchmarkMSM compares Pippenger multi-scalar multiplication with the
// seed's affine loop and a per-point wNAF loop at the sizes the
// accumulator layers see, and Pippenger with Straus at the batched
// pairing check's 64-bit scalars.
func BenchmarkMSM(b *testing.B) {
	c := benchCurve()
	for _, n := range []int{16, 256, 4096} {
		pts := benchPoints(c, n)
		ks := benchScalars(n)
		b.Run(sizeLabel("n", n)+"/pippenger", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.MultiScalarMul(pts, ks)
			}
		})
		if n <= 256 { // the loops at 4096 are too slow to be useful
			b.Run(sizeLabel("n", n)+"/wnaf-loop", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					msmWNAFLoop(c, pts, ks)
				}
			})
			b.Run(sizeLabel("n", n)+"/affine-loop", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					msmAffineLoop(c, pts, ks)
				}
			})
		}
	}
	// The batched pairing check's randomizer collapse: a few points
	// against 64-bit scalars, through MultiScalarMulShort and through
	// each engine directly.
	for _, n := range []int{2, 4, 12, 40} {
		pts := benchPoints(c, n)
		ks := benchScalars(n)
		for i := range ks {
			ks[i] = new(big.Int).Rsh(ks[i], 160-64)
		}
		label := "bits=64/" + sizeLabel("n", n)
		b.Run(label, func(b *testing.B) {
			for b.Loop() {
				c.MultiScalarMulShort(pts, ks)
			}
		})
		b.Run(label+"/pippenger", func(b *testing.B) {
			for b.Loop() {
				c.msmPippenger(pts, ks, 64)
			}
		})
		b.Run(label+"/straus", func(b *testing.B) {
			for b.Loop() {
				c.msmStraus(pts, ks, 64)
			}
		})
	}
	// The same Pippenger sizes and short-scalar collapse on the 512-bit
	// curve, the default preset's field size and multiplication path.
	c = benchCurveBits(512)
	for _, n := range []int{16, 256, 4096} {
		pts := benchPoints(c, n)
		ks := benchScalars(n)
		b.Run("p=512/"+sizeLabel("n", n)+"/pippenger", func(b *testing.B) {
			for b.Loop() {
				c.MultiScalarMul(pts, ks)
			}
		})
	}
	for _, n := range []int{2, 12, 40} {
		pts := benchPoints(c, n)
		ks := benchScalars(n)
		for i := range ks {
			ks[i] = new(big.Int).Rsh(ks[i], 160-64)
		}
		b.Run("p=512/bits=64/"+sizeLabel("n", n), func(b *testing.B) {
			for b.Loop() {
				c.MultiScalarMulShort(pts, ks)
			}
		})
	}
}

func sizeLabel(k string, n int) string {
	return k + "=" + big.NewInt(int64(n)).String()
}

// TestBenchCurve512HasDefaultShape: the 512-bit bench curve's prime
// fills 8 limbs with a top limb below 2⁶⁴−1, the field shape of the
// default preset and of its multiplication kernel.
func TestBenchCurve512HasDefaultShape(t *testing.T) {
	if testing.Short() {
		t.Skip("prime search")
	}
	p := benchCurveBits(512).F.P
	top := new(big.Int).Rsh(p, 448)
	if p.BitLen() <= 448 || top.BitLen() > 64 || top.Cmp(new(big.Int).SetUint64(^uint64(0))) == 0 {
		t.Fatalf("p has %d bits, top limb %x: not an 8-limb field the kernel takes", p.BitLen(), top)
	}
}
