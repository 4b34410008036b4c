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

// SumEach returns the sum of every group: out[i] = Σ groups[i]. Each
// round pairs up the points inside every group and performs all of the
// round's additions in affine coordinates with one shared inversion
// (batchInvert); a group's odd point waits for the next round. Whether
// a round is affine is decided from its shape (affineRound): once
// finishing every group on a mixed Jacobian chain is cheaper, the
// remaining points of each group are chained, and the chained groups
// convert back with one shared inversion. P = Q takes the tangent,
// P = −Q and the 2-torsion point doubled give infinity, and infinity
// inputs add nothing. The groups are not modified.
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
// be affine: whether some number D ≥ 1 of affine rounds (an inversion
// and affinePairMuls per pair each), then chaining what is left, costs
// fewer multiplications than chaining every group now. size(i) is the
// live point count of group i < n, and a round leaves ⌈k/2⌉ of k
// points. A chained group of k points costs k−1 mixed additions and,
// when the sums are wanted affine (jacOut false), a share of one
// normalization, whose inversion is paid once if any group is chained.
// So one large group stops adding affinely at about 16 pairs, where the
// inversion outweighs what the pairs save, while many groups of a few
// points, such as MultiScalarMul's buckets, keep adding affinely at
// fewer pairs, because their last rounds also spare every group its
// normalization. minPairs > 0 replaces the estimate by a fixed
// crossover, with which the tests force either path: affine from
// minPairs pairs, or when the round finishes every group.
func affineRound(n int, size func(int) int, jacOut bool, minPairs int) bool {
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
		spent += invMuls + pairs*affinePairMuls
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
func (c *Curve) sumRounds(s *SumScratch, jacOut bool, minPairs int) {
	f := c.F
	cur := s.cur
	for {
		pairs, half := 0, 0
		for _, g := range cur {
			n := g.len()
			pairs += n / 2
			half += (n + 1) / 2
		}
		if pairs == 0 || !affineRound(len(cur), func(i int) int { return cur[i].len() }, jacOut, minPairs) {
			break
		}
		// The first affine round needs the most room, so later rounds
		// reuse the front of the same buffers. Each round repacks the
		// groups' windows from the front of buf in group order, and a
		// sum is written at or before the position of the pair it comes
		// from, so no write reaches a point that a later pair still
		// reads.
		s.buf, s.den = grow(s.buf, half), grow(s.den, 2*pairs)
		inv := s.den[:0]
		for _, g := range cur {
			for k := 0; k+1 < g.len(); k += 2 {
				p, q := g.at(k), g.at(k+1)
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
		batchInvert(f, inv, s.den[pairs:2*pairs])
		j, off := 0, 0
		for i, g := range cur {
			n := g.len()
			dst := s.buf[off : off+(n+1)/2]
			off += len(dst)
			w, k := 0, 0
			for ; k+1 < n; k, j = k+2, j+1 {
				p, q := g.at(k), g.at(k+1)
				var lambda ff.Elt
				switch {
				case p.Inf:
					if !q.Inf {
						dst[w], w = *q, w+1
					}
					continue
				case q.Inf:
					dst[w], w = *p, w+1
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
			if k < n {
				dst[w], w = *g.at(k), w+1
			}
			cur[i] = span{pts: dst[:w]}
		}
	}
	s.out = grow(s.out, len(cur))
	s.jac, s.at = s.jac[:0], s.at[:0]
	for i, g := range cur {
		switch n := g.len(); n {
		case 0:
			s.out[i] = c.Infinity()
		case 1:
			s.out[i] = *g.at(0)
		default:
			var acc JacPoint
			for k := range n {
				acc = c.JacAddMixed(acc, *g.at(k))
			}
			s.jac, s.at = append(s.jac, acc), append(s.at, i)
		}
	}
	clear(cur) // s keeps no reference to the caller's points
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
