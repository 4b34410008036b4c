package ec

import (
	"math/big"

	"github.com/vchain-go/vchain/internal/par"
)

// msmWindowBits picks the Pippenger bucket width for n points. The
// classic trade-off: each extra bit halves the number of windows but
// doubles the bucket count. Thresholds minimize the operation count
// windows·(n + 2·2^w), biased one notch low because the bucket-combine
// additions are full Jacobian adds while the fills are cheaper mixed
// adds.
func msmWindowBits(n int) int {
	switch {
	case n < 8:
		return 2
	case n < 32:
		return 3
	case n < 128:
		return 4
	case n < 512:
		return 5
	case n < 1024:
		return 6
	case n < 4096:
		return 7
	case n < 16384:
		return 9
	default:
		return 11
	}
}

// msmParallelMin is the input size below which spreading the windows
// over goroutines costs more than it saves.
const msmParallelMin = 64

// MultiScalarMul returns Σ scalars[i]·points[i] by the Pippenger bucket
// method: for each w-bit window of the scalars, points sharing a digit
// value are summed into a bucket (bucketSums), and the buckets are
// combined with a running sum — O(n + 2^w) group operations per window
// instead of n scalar multiplications total. The combination runs in
// Jacobian coordinates, and one conversion back to affine ends the
// MSM; all-unit scalars are one SumEach. Windows are computed in
// parallel (par.For) when the input is large enough.
//
// Infinity points and zero (or nil) scalars contribute nothing;
// negative scalars negate their point. Slices must have equal length.
func (c *Curve) MultiScalarMul(points []Point, scalars []*big.Int) Point {
	return c.multiScalarMul(points, scalars, false)
}

// MultiScalarMulShort is MultiScalarMul for a few scalars much shorter
// than the group order, such as the batched pairing check's 64-bit
// randomizers: it runs the interleaved wNAF method (msmStraus) instead
// of the bucket method whenever its operation count is the smaller
// one. The accumulators' commitments and proofs use MultiScalarMul,
// which never does: at Construction 2's small multiplicities the count
// favours Straus too, but it measured slower than Pippenger and SumEach,
// because its per-scalar digit recoding and table normalization are
// overheads the count leaves out.
func (c *Curve) MultiScalarMulShort(points []Point, scalars []*big.Int) Point {
	return c.multiScalarMul(points, scalars, true)
}

func (c *Curve) multiScalarMul(points []Point, scalars []*big.Int, short bool) Point {
	if len(points) != len(scalars) {
		panic("ec: MultiScalarMul: len(points) != len(scalars)")
	}
	pts := make([]Point, 0, len(points))
	ks := make([]*big.Int, 0, len(points))
	maxBits := 0
	for i, p := range points {
		k := scalars[i]
		if p.Inf || k == nil || k.Sign() == 0 {
			continue
		}
		if k.Sign() < 0 {
			p = c.Neg(p)
			k = new(big.Int).Neg(k)
		}
		pts = append(pts, p)
		ks = append(ks, k)
		if b := k.BitLen(); b > maxBits {
			maxBits = b
		}
	}
	switch len(pts) {
	case 0:
		return c.Infinity()
	case 1:
		return c.ScalarMul(pts[0], ks[0])
	}
	if maxBits == 1 {
		return c.SumEach([][]Point{pts})[0]
	}
	if short && strausCost(len(pts), maxBits) < pippengerCost(len(pts), maxBits) {
		return c.msmStraus(pts, ks, maxBits)
	}
	return c.msmPippenger(pts, ks, maxBits)
}

// msmPippenger returns Σ ks[i]·pts[i] for positive scalars of at most
// bits bits by the bucket method MultiScalarMul describes.
func (c *Curve) msmPippenger(pts []Point, ks []*big.Int, maxBits int) Point {
	w := msmWindowBits(len(pts))
	nWindows := (maxBits + w - 1) / w
	sums := make([]JacPoint, nWindows)
	windowSum := func(wi int) JacPoint {
		buckets := c.bucketSums(pts, ks, wi, w)
		// Σ (d+1)·buckets[d] via the running-sum trick: walking the
		// buckets top-down, `running` has been added to `sum` once per
		// bucket at or above it, weighting each bucket by its digit.
		var running, sum JacPoint
		for j := len(buckets) - 1; j >= 0; j-- {
			running = c.JacAdd(running, buckets[j])
			sum = c.JacAdd(sum, running)
		}
		return sum
	}

	if len(pts) < msmParallelMin {
		for wi := range sums {
			sums[wi] = windowSum(wi)
		}
	} else {
		par.For(nWindows, func(wi int) { sums[wi] = windowSum(wi) })
	}

	var acc JacPoint
	for wi := nWindows - 1; wi >= 0; wi-- {
		for i := 0; i < w; i++ {
			acc = c.JacDouble(acc)
		}
		acc = c.JacAdd(acc, sums[wi])
	}
	return c.FromJac(acc)
}

// bucketSums returns window wi's buckets: bucket d−1 is the sum of the
// points whose w-bit digit there is d. Each bucket is a list of indices
// into pts, and SumEachIndex's rounds add them up where affineRound
// finds an affine round cheaper for the buckets' sizes; where it does
// not (a few points per bucket), each bucket is a mixed Jacobian chain,
// which needs no normalization because the buckets are combined in
// Jacobian form.
func (c *Curve) bucketSums(pts []Point, ks []*big.Int, wi, w int) []JacPoint {
	buckets := make([]JacPoint, (1<<w)-1) // zero value = infinity
	digits := make([]int, len(ks))
	sizes := make([]int, len(buckets))
	for i, k := range ks {
		if d := scalarDigit(k, wi*w, w); d != 0 {
			digits[i] = d
			sizes[d-1]++
		}
	}
	if !affineRound(len(sizes), func(d int) int { return sizes[d] }, true, c.vec(), 0) {
		for i, d := range digits {
			if d != 0 {
				buckets[d-1] = c.JacAddMixed(buckets[d-1], pts[i])
			}
		}
		return buckets
	}
	idx := make([]int32, len(ks))
	lists := make([][]int32, len(buckets))
	off := 0
	for d, n := range sizes {
		lists[d] = idx[off : off : off+n]
		off += n
	}
	for i, d := range digits {
		if d != 0 {
			lists[d-1] = append(lists[d-1], int32(i))
		}
	}
	var s SumScratch
	s.loadIndex(pts, lists)
	c.sumRounds(&s, true, 0)
	for d := range buckets {
		buckets[d] = c.ToJac(s.out[d])
	}
	for j, d := range s.at {
		buckets[d] = s.jac[j]
	}
	return buckets
}

// pippengerCost estimates MultiScalarMul's bucket method: per window,
// one mixed addition per non-zero digit and two general additions per
// bucket, then the doublings and window additions that combine them.
func pippengerCost(n, bits int) int {
	w := msmWindowBits(n)
	windows := (bits + w - 1) / w
	fills := n * ((1 << w) - 1) >> w
	return windows*(fills*mixedAddMuls+2*((1<<w)-1)*jacAddMuls+jacAddMuls) + windows*w*jacDoubleMuls
}

// strausCost estimates msmStraus: the odd-multiple tables and their
// one normalization, one doubling per bit, and one mixed addition per
// non-zero wNAF digit, about one in w+1.
func strausCost(n, bits int) int {
	w := wnafWidthFor(bits)
	t := 1 << (w - 2)
	table := n*(jacDoubleMuls+(t-1)*jacAddMuls+t*normalizeMuls) + invMuls
	return table + (bits+1)*jacDoubleMuls + n*((bits+w)/(w+1))*mixedAddMuls
}

// msmStraus returns Σ ks[i]·pts[i] for positive scalars of at most bits
// bits by interleaved wNAF (Straus): a table of odd multiples per
// point, all normalized to affine with one inversion, and a single
// doubling chain that every scalar's digits add into. Against Pippenger
// it wins for a few wide scalars, where the bucket method pays its
// bucket combination once per narrow window.
func (c *Curve) msmStraus(pts []Point, ks []*big.Int, bits int) Point {
	w := wnafWidthFor(bits)
	size := 1 << (w - 2)
	jtab := make([]JacPoint, len(pts)*size)
	digits := make([][]int8, len(pts))
	top := 0
	for i, p := range pts {
		digits[i] = wnafDigits(ks[i], w)
		top = max(top, len(digits[i]))
		t := jtab[i*size : (i+1)*size]
		t[0] = c.ToJac(p)
		if size > 1 {
			twoP := c.JacDouble(t[0])
			for j := 1; j < size; j++ {
				t[j] = c.JacAdd(t[j-1], twoP)
			}
		}
	}
	tab := c.NormalizeJac(jtab)
	var acc JacPoint
	for bit := top - 1; bit >= 0; bit-- {
		acc = c.JacDouble(acc)
		for i, ds := range digits {
			if bit >= len(ds) {
				continue
			}
			if d := ds[bit]; d > 0 {
				acc = c.JacAddMixed(acc, tab[i*size+int(d-1)/2])
			} else if d < 0 {
				acc = c.JacAddMixed(acc, c.Neg(tab[i*size+int(-d-1)/2]))
			}
		}
	}
	return c.FromJac(acc)
}

// scalarDigit extracts the w-bit digit of k starting at bit off.
func scalarDigit(k *big.Int, off, w int) int {
	d := 0
	for b := 0; b < w; b++ {
		if k.Bit(off+b) == 1 {
			d |= 1 << b
		}
	}
	return d
}

// wnafWidthFor sizes the wNAF window to the scalar: narrow scalars
// don't amortize a big odd-multiples table.
func wnafWidthFor(bits int) int {
	switch {
	case bits <= 8:
		return 2
	case bits <= 32:
		return 4
	default:
		return 5
	}
}

// scalarMulWNAF computes k·p for k > 0 with a width-w non-adjacent form:
// precompute the odd multiples P, 3P, …, (2^{w−1}−1)P (normalized to
// affine with one batch inversion), then one Jacobian doubling per bit
// and one mixed addition per ~(w+1) bits. Signed digits halve the table
// relative to a plain window method because negation is free.
func (c *Curve) scalarMulWNAF(p Point, k *big.Int) Point {
	w := wnafWidthFor(k.BitLen())
	digits := wnafDigits(k, w)
	tableSize := 1 << (w - 2)
	jtab := make([]JacPoint, tableSize)
	jtab[0] = c.ToJac(p)
	if tableSize > 1 {
		twoP := c.JacDouble(jtab[0])
		for i := 1; i < tableSize; i++ {
			jtab[i] = c.JacAdd(jtab[i-1], twoP)
		}
	}
	tab := c.NormalizeJac(jtab)
	var acc JacPoint
	for i := len(digits) - 1; i >= 0; i-- {
		acc = c.JacDouble(acc)
		if d := digits[i]; d > 0 {
			acc = c.JacAddMixed(acc, tab[(d-1)/2])
		} else if d < 0 {
			acc = c.JacAddMixed(acc, c.Neg(tab[(-d-1)/2]))
		}
	}
	return c.FromJac(acc)
}

// NAF returns the non-adjacent form of k > 0, least significant digit
// first: digits in {−1, 0, 1}, no two adjacent ones non-zero.
func NAF(k *big.Int) []int8 { return wnafDigits(k, 2) }

// wnafDigits returns the width-w non-adjacent form of k > 0, least
// significant digit first. Non-zero digits are odd, lie in
// (−2^{w−1}, 2^{w−1}), and are separated by at least w−1 zeros.
func wnafDigits(k *big.Int, w int) []int8 {
	out := make([]int8, 0, k.BitLen()+1)
	kk := new(big.Int).Set(k)
	mod := int64(1) << w
	half := mod >> 1
	t := new(big.Int)
	for kk.Sign() > 0 {
		if kk.Bit(0) == 1 {
			d := int64(scalarDigit(kk, 0, w))
			if d >= half {
				d -= mod
			}
			out = append(out, int8(d))
			kk.Sub(kk, t.SetInt64(d))
		} else {
			out = append(out, 0)
		}
		kk.Rsh(kk, 1)
	}
	return out
}
