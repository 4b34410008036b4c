package ec

import (
	"math/big"
	"slices"

	"github.com/vchain-go/vchain/internal/crypto/ff"
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

	limit := nWindows
	if len(pts) < msmParallelMin {
		limit = 1
	}
	par.For(nWindows, limit, func(wi int) { sums[wi] = windowSum(wi) })

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
// points whose w-bit digit there is d. When SumEach's first round is
// sure to be affine, at least sumEachMinPairs additions even if every
// bucket holds an odd point, the points are listed per bucket, back to
// back in one slice, and one SumEach adds up every bucket; otherwise
// (a few points per bucket) each is a mixed Jacobian chain, which
// spares SumEach's normalization.
func (c *Curve) bucketSums(pts []Point, ks []*big.Int, wi, w int) []JacPoint {
	buckets := make([]JacPoint, (1<<w)-1) // zero value = infinity
	if len(pts) < 2*sumEachMinPairs+len(buckets) {
		for i, k := range ks {
			if d := scalarDigit(k, wi*w, w); d != 0 {
				buckets[d-1] = c.JacAddMixed(buckets[d-1], pts[i])
			}
		}
		return buckets
	}
	digits := make([]int, len(ks))
	starts := make([]int, 1<<w+1)
	for i, k := range ks {
		digits[i] = scalarDigit(k, wi*w, w)
		starts[digits[i]+1]++
	}
	for d := 1; d <= 1<<w; d++ {
		starts[d] += starts[d-1]
	}
	flat := make([]Point, len(ks))
	lists := make([][]Point, len(buckets))
	for d := range lists {
		lists[d] = flat[starts[d+1]:starts[d+1]:starts[d+2]]
	}
	for i, d := range digits {
		if d != 0 {
			lists[d-1] = append(lists[d-1], pts[i])
		}
	}
	for d, p := range c.SumEach(lists) {
		buckets[d] = c.ToJac(p)
	}
	return buckets
}

// Operation costs in field multiplications (squarings counted as
// multiplications) for the curve coefficient a = 0: a mixed addition,
// a general Jacobian addition, a doubling, one NormalizeJac entry, and
// an inversion, which is about 80 multiplications at the default preset
// (BenchmarkFieldInv against BenchmarkFieldMul).
const (
	mixedAddMuls  = 11
	jacAddMuls    = 16
	jacDoubleMuls = 7
	normalizeMuls = 7
	invMuls       = 80
)

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

// sumEachMinPairs is the round size, in independent additions across
// all groups, from which SumEach adds affinely. An affine round pays
// one shared inversion, about 80 multiplications at the default preset,
// plus 6 per addition (3 in batchInvert, 3 for the chord), where a
// mixed Jacobian addition pays 11, so by that count a round wins from
// about 16 additions. Measured at the default preset (2 vCPUs, six
// alternating runs, 8 against 16): a limit of 16 took one group of 16
// or 32 points from 41–53 and 71–85 µs to 30–43 and 58–78 µs, but
// MultiScalarMul over 64 and 256 points with 160-bit scalars, whose
// buckets SumEach adds, from 5.9–7.9 and 13.3–17.6 ms to 7.2–9.5 and
// 15.4–18.3 ms, and k groups of three points stayed within noise.
// Proofs run those multi-scalar multiplications, so the limit stays 8.
const sumEachMinPairs = 8

// SumEach returns the sum of every group: out[i] = Σ groups[i]. Each
// round pairs up the points inside every group and performs all of the
// round's additions in affine coordinates with one shared inversion
// (batchInvert); a group's odd point waits for the next round. Once a
// round would have fewer than sumEachMinPairs additions, the remaining
// points of each group are summed on a mixed Jacobian chain, and all
// groups convert back with one NormalizeJac. A round that finishes
// every group (none has more than two points left) is always affine:
// it saves the normalization as well. P = Q takes the tangent, P = −Q
// and the 2-torsion point doubled give infinity, and infinity inputs
// add nothing. The groups are not modified.
func (c *Curve) SumEach(groups [][]Point) []Point { return c.sumEach(groups, sumEachMinPairs) }

// sumEach is SumEach with the crossover as a parameter, so that tests
// and BenchmarkSumEach can force either path: minPairs 1 adds every
// round affinely, and a minPairs above every round's size leaves only
// a last round affine.
func (c *Curve) sumEach(groups [][]Point, minPairs int) []Point {
	f := c.F
	// cur[i] is group i's live points: the input until the first affine
	// round, then a window of buf. Each round repacks the windows from
	// the front of buf in group order, and a sum is written at or before
	// the position of the pair it comes from, so no write reaches a
	// point that a later pair of the round still reads.
	cur := slices.Clone(groups)
	var buf []Point
	var den []ff.Elt // a round's denominators, then batchInvert's scratch
	for {
		pairs, last := 0, true
		for _, g := range cur {
			pairs += len(g) / 2
			last = last && len(g) <= 2
		}
		if pairs == 0 || (pairs < minPairs && !last) {
			break
		}
		if buf == nil {
			half := 0
			for _, g := range cur {
				half += (len(g) + 1) / 2
			}
			buf = make([]Point, half)
			den = make([]ff.Elt, 2*pairs)
		}
		inv := den[:0]
		for _, g := range cur {
			for k := 0; k+1 < len(g); k += 2 {
				p, q := &g[k], &g[k+1]
				switch {
				case p.Inf || q.Inf:
					inv = append(inv, f.One()) // no slope: the sum is the other point
				case !p.X.Equal(q.X):
					inv = append(inv, f.Sub(q.X, p.X))
				case p.Y.Equal(q.Y) && !p.Y.IsZero():
					inv = append(inv, f.Add(p.Y, p.Y)) // P = Q: the tangent's 2y
				default:
					inv = append(inv, f.One()) // P = −Q: no slope, the sum is infinity
				}
			}
		}
		batchInvert(f, inv, den[pairs:2*pairs])
		j, off := 0, 0
		for i, g := range cur {
			dst := buf[off : off+(len(g)+1)/2]
			off += len(dst)
			w, k := 0, 0
			for ; k+1 < len(g); k, j = k+2, j+1 {
				p, q := g[k], g[k+1]
				var lambda ff.Elt
				switch {
				case p.Inf:
					if !q.Inf {
						dst[w], w = q, w+1
					}
					continue
				case q.Inf:
					dst[w], w = p, w+1
					continue
				case !p.X.Equal(q.X):
					lambda = f.Mul(f.Sub(q.Y, p.Y), inv[j])
				case p.Y.Equal(q.Y) && !p.Y.IsZero():
					x2 := f.Square(p.X)
					lambda = f.Mul(f.Add(f.Add(x2, x2), x2), inv[j])
				default:
					continue // P = −Q: infinity drops out of the group
				}
				x3 := f.Sub(f.Sub(f.Square(lambda), p.X), q.X)
				dst[w] = Point{X: x3, Y: f.Sub(f.Mul(lambda, f.Sub(p.X, x3)), p.Y)}
				w++
			}
			if k < len(g) {
				dst[w], w = g[k], w+1
			}
			cur[i] = dst[:w]
		}
	}
	out := make([]Point, len(groups))
	var jac []JacPoint
	var at []int
	for i, g := range cur {
		switch len(g) {
		case 0:
			out[i] = c.Infinity()
		case 1:
			out[i] = g[0]
		default:
			var acc JacPoint
			for _, p := range g {
				acc = c.JacAddMixed(acc, p)
			}
			jac, at = append(jac, acc), append(at, i)
		}
	}
	for j, p := range c.NormalizeJac(jac) {
		out[at[j]] = p
	}
	return out
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
