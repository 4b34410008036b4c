package ec

import (
	"unsafe"

	"github.com/vchain-go/vchain/internal/crypto/ff"
)

// Operation costs in field multiplications (squarings counted as
// multiplications) for the curve coefficient a = 0: a mixed addition,
// a general Jacobian addition, a doubling, one NormalizeJac entry, one
// pair of an affine round (3 in batchInvert, 3 for the chord), and an
// inversion, about 60 multiplications at the default preset since the
// field inverts on its limbs (BenchmarkFieldInv against
// BenchmarkFieldMul).
const (
	mixedAddMuls   = 11
	jacAddMuls     = 16
	jacDoubleMuls  = 7
	normalizeMuls  = 7
	affinePairMuls = 6
	invMuls        = 60
)

// The costs of an affine round on the 8-lane kernel (vecRound), in the
// same multiplications: a round's fixed part, the inversion and
// VecInvertEach's butterfly over the lanes, and each Vec of eight
// pairs, its three products in VecInvertEach, its VecChord and the
// loading of its lanes. An 8-lane product costs about an eighth of a
// scalar one (BenchmarkVecMul against BenchmarkFieldMul), so a Vec
// costs about what two pairs cost on Field.Mul, and a round of four or
// fewer pairs is cheaper on Field.Mul (BenchmarkSumEach).
const (
	vecRoundMuls = invMuls + 17
	vecMuls      = 11
)

// useVec reports whether an affine round of the given pairs runs on
// the 8-lane kernel: where the field has it and it is cheaper there.
func useVec(pairs int, vec bool) bool {
	return vec && vecRoundMuls+(pairs+7)/8*vecMuls < invMuls+pairs*affinePairMuls
}

// roundMuls is the cost of an affine round of the given pairs.
func roundMuls(pairs int, vec bool) int {
	if useVec(pairs, vec) {
		return vecRoundMuls + (pairs+7)/8*vecMuls
	}
	return invMuls + pairs*affinePairMuls
}

// vec reports whether c's affine rounds may run on the 8-lane kernel.
func (c *Curve) vec() bool { return c.F.HasVec() && c.rounds != scalarRounds }

// SumEach returns the sum of every group: out[i] = Σ groups[i]. Each
// round pairs up the points inside every group and performs all of the
// round's additions in affine coordinates with one shared inversion
// (batchInvert); a group's odd point waits for the next round. Whether
// a round is affine is decided from its shape (affineRound): once
// finishing every group on a mixed Jacobian chain is cheaper, the
// remaining points of each group are chained, and the chained groups
// convert back with one shared inversion. P = Q takes the tangent,
// P = −Q and the 2-torsion point doubled give infinity, and infinity
// inputs add nothing. Many groups enter the rounds in waves of
// bounded size (sumRounds), so a call of any size keeps its round
// buffers small. The groups are not modified.
func (c *Curve) SumEach(groups [][]Point) []Point { return c.sumEach(groups, 0) }

// sumEach is SumEach with affineRound's minPairs, which tests set to
// force either path.
func (c *Curve) sumEach(groups [][]Point, minPairs int) []Point {
	var s SumScratch
	s.cur = make([]span, len(groups))
	for i, g := range groups {
		s.cur[i] = span{pts: g}
	}
	return c.sumAffine(&s, minPairs)
}

// SumEachIndex is SumEach over groups of indices into one base slice:
// out[i] = Σ_k base[groups[i][k]], with repeated indices counted each
// time. The first round reads base directly, so no group is gathered
// into a copy. A non-nil s supplies every buffer the call needs and
// keeps them for the next call; the result is then s's own and valid
// until s is used again. A nil s allocates afresh.
func (c *Curve) SumEachIndex(s *SumScratch, base []Point, groups [][]int32) []Point {
	if s == nil {
		s = new(SumScratch)
	}
	s.loadIndex(base, groups)
	return c.sumAffine(s, 0)
}

// SumScratch is the working memory of SumEachIndex: every round's
// points and denominators, the live groups and the sums. The zero
// value is ready, and it grows to the largest call it has served. A
// SumScratch serves one call at a time.
type SumScratch struct {
	cur []span
	buf []Point
	den []ff.Elt // a round's denominators, then batchInvert's scratch
	out []Point
	jac []JacPoint
	at  []int
	// live lists the groups in the rounds, in group order.
	live []int32
	// The 8-lane rounds' (vecRound): each pair, the denominators and
	// their inverses, a Vec per eight pairs, and one Vec's worth of
	// operands and sums.
	pairs      []lanePair
	vden, vinv []ff.Vec
	lane       [6]ff.Vec
}

// Trim drops every buffer of s that holds more than max bytes, so that
// a caller keeping s for reuse keeps at most that much per buffer.
func (s *SumScratch) Trim(max int) {
	s.cur = trim(s.cur, max)
	s.buf = trim(s.buf, max)
	s.den = trim(s.den, max)
	s.out = trim(s.out, max)
	s.jac = trim(s.jac, max)
	s.at = trim(s.at, max)
	s.live = trim(s.live, max)
	s.pairs = trim(s.pairs, max)
	s.vden = trim(s.vden, max)
	s.vinv = trim(s.vinv, max)
}

// trim returns xs, or nil if its capacity holds more than max bytes.
func trim[T any](xs []T, max int) []T {
	var t T
	if cap(xs)*int(unsafe.Sizeof(t)) > max {
		return nil
	}
	return xs
}

// span is one group of live points: pts[idx[k]] for k < len(idx) when
// idx is set, else pts itself. Input groups are spans of either form;
// after an affine round every span is a window of the round buffer.
type span struct {
	pts []Point
	idx []int32
}

func (g span) len() int {
	if g.idx != nil {
		return len(g.idx)
	}
	return len(g.pts)
}

func (g span) at(k int) *Point {
	if g.idx != nil {
		return &g.pts[g.idx[k]]
	}
	return &g.pts[k]
}

// loadIndex makes s's live groups the index lists into base. An empty
// list is an empty span: a span with pts set and idx nil would read
// all of base.
func (s *SumScratch) loadIndex(base []Point, groups [][]int32) {
	s.cur = grow(s.cur, len(groups))
	for i, g := range groups {
		if len(g) == 0 {
			s.cur[i] = span{}
		} else {
			s.cur[i] = span{pts: base, idx: g}
		}
	}
}

// grow returns xs resized to n, reallocated only when its capacity is
// short.
func grow[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
}

// affineRound reports whether the next round of the live groups should
// be affine: whether some number D ≥ 1 of affine rounds (roundMuls
// each: an inversion and affinePairMuls per pair, or less on the
// 8-lane kernel where vec says the field has it), then chaining what is
// left, costs fewer multiplications than chaining every group now.
// size(i) is the live point count of group i < n, and a round leaves
// ⌈k/2⌉ of k points. A chained group of k points costs k−1 mixed
// additions and, when the sums are wanted affine (jacOut false), a
// share of one normalization, whose inversion is paid once if any group
// is chained. So one large group stops adding affinely at about 16
// pairs (about 10 on the kernel, whose pairs are cheaper), where the
// inversion outweighs what the pairs save, while many groups of a few
// points, such as MultiScalarMul's buckets, keep adding affinely at
// fewer pairs, because their last rounds also spare every group its
// normalization. minPairs > 0 replaces the estimate by a fixed
// crossover, with which the tests force either path: affine from
// minPairs pairs, or when the round finishes every group.
func affineRound(n int, size func(int) int, jacOut, vec bool, minPairs int) bool {
	if minPairs > 0 {
		pairs, last := 0, true
		for i := range n {
			k := size(i)
			pairs += k / 2
			last = last && k <= 2
		}
		return pairs >= minPairs || last
	}
	now := chainMuls(n, size, 0, jacOut)
	spent := 0
	for d := 0; ; d++ {
		pairs := 0
		for i := range n {
			pairs += afterRounds(size(i), d) / 2
		}
		if pairs == 0 {
			return false
		}
		spent += roundMuls(pairs, vec)
		if spent >= now {
			return false // deeper rounds only add to it
		}
		if spent+chainMuls(n, size, d+1, jacOut) < now {
			return true
		}
	}
}

// afterRounds returns how many of k points are left after d rounds.
func afterRounds(k, d int) int { return (k + 1<<d - 1) >> d }

// chainMuls is the cost of chaining every group after d rounds.
func chainMuls(n int, size func(int) int, d int, jacOut bool) int {
	muls, chained := 0, false
	for i := range n {
		if k := afterRounds(size(i), d); k >= 2 {
			muls += (k - 1) * mixedAddMuls
			chained = true
			if !jacOut {
				muls += normalizeMuls
			}
		}
	}
	if chained && !jacOut {
		muls += invMuls
	}
	return muls
}

// sumRounds adds up s.cur's groups: the affine rounds, then a mixed
// Jacobian chain for each group left with more than one point. It
// leaves in s.out[i] the sum of every group that ended with at most
// one point, and for the chained groups their sums in s.jac with their
// group numbers in s.at. jacOut says that the caller wants Jacobian
// sums, so that a chained group needs no normalization; minPairs is
// affineRound's.
//
// The groups enter the rounds in waves: in order, while the live
// points stay within wavePoints (a larger group enters alone). While
// groups wait, every round is affine, and the groups a round leaves
// with one point retire to s.out, making room for the next; the rounds
// of many small sums, such as a run's proofs, thus share their
// inversions without a round buffer for all their points at once. The
// last wave's rounds end as affineRound decides.
func (c *Curve) sumRounds(s *SumScratch, jacOut bool, minPairs int) {
	s.out = grow(s.out, len(s.cur))
	s.live = s.live[:0]
	next, points := 0, 0
	for {
		// Retire the groups of at most one point and admit new ones.
		live := s.live[:0]
		for _, g := range s.live {
			if s.retire(c, g) {
				points -= s.cur[g].len()
			} else {
				live = append(live, g)
			}
		}
		for ; next < len(s.cur) && (len(live) == 0 || points+s.cur[next].len() <= wavePoints); next++ {
			if !s.retire(c, int32(next)) {
				live = append(live, int32(next))
				points += s.cur[next].len()
			}
		}
		s.live = live
		pairs, half := 0, 0
		for _, g := range live {
			n := s.cur[g].len()
			pairs += n / 2
			half += (n + 1) / 2
		}
		if pairs == 0 {
			break // every group retired, and none waits
		}
		if next == len(s.cur) && !affineRound(len(live), func(i int) int { return s.cur[live[i]].len() }, jacOut, c.vec(), minPairs) {
			break
		}
		s.buf = grow(s.buf, half)
		if useVec(pairs, c.vec()) || c.vec() && c.rounds == vecRounds {
			c.vecRound(s, pairs)
		} else {
			c.scalarRound(s, pairs)
		}
		points = 0
		for _, g := range live {
			points += s.cur[g].len()
		}
	}
	s.jac, s.at = s.jac[:0], s.at[:0]
	for _, g := range s.live {
		var acc JacPoint
		for k := range s.cur[g].len() {
			acc = c.JacAddMixed(acc, *s.cur[g].at(k))
		}
		s.jac, s.at = append(s.jac, acc), append(s.at, int(g))
	}
	clear(s.cur) // s keeps no reference to the caller's points
}

// wavePoints bounds the live points of sumRounds that many small
// groups fill, so that a round's buffers (buf, and vecRound's pairs,
// vden and vinv) stay within about 41, 6, 18 and 18 KB. A group larger
// than a wave enters alone, and the buffers grow with it; the
// accumulators keep a SumScratch's buffers up to their own cap (Trim).
const wavePoints = 448

// retire moves group g's sum to s.out if it has at most one point, and
// reports whether it did.
func (s *SumScratch) retire(c *Curve, g int32) bool {
	switch s.cur[g].len() {
	case 0:
		s.out[g] = c.Infinity()
	case 1:
		s.out[g] = *s.cur[g].at(0)
	default:
		return false
	}
	return true
}

// Each round repacks the live groups' windows from the front of buf in
// group order, the groups that entered last (read from the caller's
// points) after the others, and a sum is written at or before the
// position of the pair it comes from, so a round that writes its sums
// in pair order, having read each pair by then, never writes over a
// point that a later pair still reads. A round that needs more room
// than buf has gets a new buffer and reads the old one.

// scalarRound is one affine round on Field.Mul: every pair's
// denominator, one batchInvert, then every pair's sum.
func (c *Curve) scalarRound(s *SumScratch, pairs int) {
	f := c.F
	s.den = grow(s.den, 2*pairs)
	inv := s.den[:0]
	for _, gi := range s.live {
		g := s.cur[gi]
		for k := 0; k+1 < g.len(); k += 2 {
			p, q := g.at(k), g.at(k+1)
			switch pairKind(p, q) {
			case chord:
				inv = append(inv, f.Sub(q.X, p.X))
			case tangent:
				inv = append(inv, f.Add(p.Y, p.Y)) // P = Q: the tangent's 2y
			default:
				inv = append(inv, f.One()) // no slope
			}
		}
	}
	batchInvert(f, inv, s.den[pairs:2*pairs])
	j, off := 0, 0
	for _, gi := range s.live {
		g := s.cur[gi]
		n := g.len()
		dst := s.buf[off : off+(n+1)/2]
		off += len(dst)
		w, k := 0, 0
		for ; k+1 < n; k, j = k+2, j+1 {
			p, q := g.at(k), g.at(k+1)
			var lambda ff.Elt
			switch pairKind(p, q) {
			case chord:
				lambda = f.Mul(f.Sub(q.Y, p.Y), inv[j])
			case tangent:
				x2 := f.Square(p.X)
				lambda = f.Mul(f.Add(f.Add(x2, x2), x2), inv[j])
			default:
				w += passOn(dst[w:], p, q)
				continue
			}
			x3 := f.Sub(f.Sub(f.Square(lambda), p.X), q.X)
			dst[w] = Point{X: x3, Y: f.Sub(f.Mul(lambda, f.Sub(p.X, x3)), p.Y)}
			w++
		}
		if k < n {
			dst[w], w = *g.at(k), w+1
		}
		s.cur[gi] = span{pts: dst[:w]}
	}
}

// Pair kinds: a chord (distinct x), a tangent (P = Q, y ≠ 0), or no
// slope at all: an infinity input, whose sum is the other point, or
// P = −Q (the 2-torsion point doubled included), whose sum is infinity.
const (
	chord = iota
	tangent
	noSlope
)

func pairKind(p, q *Point) int {
	switch {
	case p.Inf || q.Inf:
		return noSlope
	case !p.X.Equal(q.X):
		return chord
	case p.Y.Equal(q.Y) && !p.Y.IsZero():
		return tangent
	}
	return noSlope
}

// passOn writes to dst the sum of a pair with no slope, the finite one
// of its points if any (P = −Q drops out of the group), and returns how
// many points it wrote.
func passOn(dst []Point, p, q *Point) int {
	switch {
	case !p.Inf && !q.Inf: // P = −Q
		return 0
	case !p.Inf:
		dst[0] = *p
	case !q.Inf:
		dst[0] = *q
	default:
		return 0
	}
	return 1
}

// vecRound is one affine round on the field's 8-lane kernel, pair j in
// lane j mod 8 of Vec j/8: every pair's denominator, one
// VecInvertEach, then, a Vec at a time, every pair's sum by VecChord.
// A tangent enters the chord formulas as the pair (P, P) with its
// slope's numerator and denominator, 3x² and 2y, in place of the
// chord's y2 − y1 and x2 − x1; a pair with no slope takes a lane with
// denominator 1 and is passed on as in scalarRound.
func (c *Curve) vecRound(s *SumScratch, pairs int) {
	f := c.F
	nv := (pairs + 7) / 8
	s.pairs = grow(s.pairs, nv*8)
	s.vden, s.vinv = grow(s.vden, nv), grow(s.vinv, nv)
	a, b := &s.lane[0], &s.lane[1]
	one, zero := f.One(), f.Zero()
	j := 0
	for _, gi := range s.live {
		g := s.cur[gi]
		for k := 0; k+1 < g.len(); k, j = k+2, j+1 {
			p, q := g.at(k), g.at(k+1)
			kind := pairKind(p, q)
			s.pairs[j] = lanePair{p: p, q: q, kind: kind}
			switch kind {
			case chord:
				a.Set(j, q.X)
				b.Set(j, p.X)
			case tangent:
				a.Set(j, f.Add(p.Y, p.Y))
				b.Set(j, zero)
			default:
				a.Set(j, one)
				b.Set(j, zero)
			}
			if j%8 == 7 {
				f.VecSub(&s.vden[j/8], a, b)
			}
		}
	}
	if j%8 != 0 {
		for ; j%8 != 0; j++ {
			s.pairs[j] = lanePair{kind: noSlope}
			a.Set(j, one)
			b.Set(j, zero)
		}
		f.VecSub(&s.vden[nv-1], a, b)
	}
	f.VecInvertEach(s.vden[:nv], s.vinv[:nv])
	x3, y3 := &s.lane[4], &s.lane[5]
	j, off := 0, 0
	for _, gi := range s.live {
		g := s.cur[gi]
		n := g.len()
		dst := s.buf[off : off+(n+1)/2]
		off += len(dst)
		w, k := 0, 0
		for ; k+1 < n; k, j = k+2, j+1 {
			if j%8 == 0 {
				c.vecChords(s, j)
			}
			if s.pairs[j].kind == noSlope {
				w += passOn(dst[w:], g.at(k), g.at(k+1))
				continue
			}
			dst[w] = Point{X: x3.Get(j), Y: y3.Get(j)}
			w++
		}
		if k < n {
			dst[w], w = *g.at(k), w+1
		}
		s.cur[gi] = span{pts: dst[:w]}
	}
	clear(s.pairs)
}

// lanePair is one pair of a vecRound.
type lanePair struct {
	p, q *Point
	kind int
}

// vecChords adds the pairs j0 to j0+7 into s.lane[4] and s.lane[5].
func (c *Curve) vecChords(s *SumScratch, j0 int) {
	f := c.F
	x1, y1, x2, y2 := &s.lane[0], &s.lane[1], &s.lane[2], &s.lane[3]
	for l := range 8 {
		lp := &s.pairs[j0+l]
		switch lp.kind {
		case chord:
			x1.Set(l, lp.p.X)
			y1.Set(l, lp.p.Y)
			x2.Set(l, lp.q.X)
			y2.Set(l, lp.q.Y)
		case tangent: // y2 − y1 = 3x²
			x := lp.p.X
			x1.Set(l, x)
			y1.Set(l, lp.p.Y)
			x2.Set(l, x)
			x2s := f.Square(x)
			y2.Set(l, f.Add(lp.p.Y, f.Add(f.Add(x2s, x2s), x2s)))
		default: // unused, but kept below p
			for _, v := range []*ff.Vec{x1, y1, x2, y2} {
				v.Set(l, ff.Elt{})
			}
		}
	}
	f.VecChord(&s.lane[4], &s.lane[5], x1, y1, x2, y2, &s.vinv[j0/8])
}

// sumAffine runs sumRounds and converts the chained groups back with
// one shared inversion, returning s.out.
func (c *Curve) sumAffine(s *SumScratch, minPairs int) []Point {
	c.sumRounds(s, false, minPairs)
	s.den = grow(s.den, 2*len(s.jac))
	s.buf = grow(s.buf, len(s.jac))
	c.normalizeInto(s.buf, s.jac, s.den)
	for j, i := range s.at {
		s.out[i] = s.buf[j]
	}
	return s.out
}
