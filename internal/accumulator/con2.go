package accumulator

import (
	"cmp"
	"crypto/rand"
	"fmt"
	"math/big"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"unsafe"

	"github.com/vchain-go/vchain/internal/crypto/ec"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/multiset"
)

// Con2 is Construction 2 (q-DHE based). Elements live in the bounded
// integer domain [1, q−1] (an ElementEncoder maps attribute strings
// there); the public key is g^{s^i} for i ∈ [1, 2q−2] \ {q} — the
// missing q-th power is precisely what makes intersecting multisets
// unprovable. Unlike Construction 1, accumulation values and proofs
// are additively homomorphic (Sum / ProofSum).
type Con2 struct {
	pr *pairing.Params
	// q is the element-domain bound.
	q int
	// pk[i] = g^{s^i} for i ∈ [1, 2q−2], pk[q] is the hole (identity,
	// never referenced). pk[0] = g.
	pk []ec.Point
	// enc maps attribute strings into [1, q−1].
	enc ElementEncoder
	// encMu guards encCache, a memo of enc.Encode results. Only enabled
	// for the stateless HashEncoder, whose every Encode rehashes; a
	// DictEncoder already answers from its own map.
	encMu    sync.RWMutex
	encCache map[string]int
	// freeMu guards free, the proving scratch sets ProveDisjoint reuses
	// (getScratch, putScratch).
	freeMu sync.Mutex
	free   []*proveScratch
}

// KeyGenCon2 runs the trusted setup for Construction 2 with a fresh
// random trapdoor.
func KeyGenCon2(pr *pairing.Params, q int, enc ElementEncoder) (*Con2, error) {
	s, err := rand.Int(rand.Reader, pr.R)
	if err != nil {
		return nil, fmt.Errorf("accumulator: sampling trapdoor: %w", err)
	}
	if s.Sign() == 0 {
		s.SetInt64(1)
	}
	return keyGenCon2WithTrapdoor(pr, q, enc, s), nil
}

// KeyGenCon2Deterministic derives the trapdoor from a seed for tests
// and reproducible benchmarks.
func KeyGenCon2Deterministic(pr *pairing.Params, q int, enc ElementEncoder, seed []byte) *Con2 {
	s := pr.RandScalar(append([]byte("con2-trapdoor/"), seed...))
	return keyGenCon2WithTrapdoor(pr, q, enc, s)
}

func keyGenCon2WithTrapdoor(pr *pairing.Params, q int, enc ElementEncoder, s *big.Int) *Con2 {
	if q < 2 {
		panic("accumulator: domain bound q must be ≥ 2")
	}
	if enc == nil {
		panic("accumulator: element encoder required")
	}
	pk := make([]ec.Point, 2*q-1)
	pk[0] = pr.G
	powerBaseMuls(pr, s, pk[1:])
	// The hole: the q-th power must not be published. Overwrite it with
	// the identity (powerBaseMuls fills every slot).
	pk[q] = pr.C.Infinity()
	c := &Con2{pr: pr, q: q, pk: pk, enc: enc}
	if _, stateless := enc.(HashEncoder); stateless {
		c.encCache = make(map[string]int)
	}
	return c
}

// Name implements Accumulator.
func (c *Con2) Name() string { return "acc2" }

// Params exposes the pairing parameters.
func (c *Con2) Params() *pairing.Params { return c.pr }

// encodeElem runs the encoder for one element, through the memo when
// the encoder is stateless.
func (c *Con2) encodeElem(e string) (int, error) {
	if c.encCache == nil {
		return c.enc.Encode(e)
	}
	c.encMu.RLock()
	v, ok := c.encCache[e]
	c.encMu.RUnlock()
	if ok {
		return v, nil
	}
	v, err := c.enc.Encode(e)
	if err != nil {
		return 0, err
	}
	c.encMu.Lock()
	if len(c.encCache) >= scalarCacheMax {
		c.encCache = make(map[string]int)
	}
	c.encCache[e] = v
	c.encMu.Unlock()
	return v, nil
}

// power is an exponent with its multiplicity: an element's code (or a
// public-key index) i, counted m times.
type power struct{ i, m int64 }

// encode appends to dst every element of x as its code, with
// multiplicities preserved, and returns the codes sorted and merged:
// distinct elements that the encoder maps to one code add up. The
// elements go to the encoder in x's ascending order, the order in
// which a DictEncoder numbers them on first sight at every party.
func (c *Con2) encode(dst []power, x multiset.Multiset) ([]power, error) {
	for _, e := range x {
		v, err := c.code(e.Elem)
		if err != nil {
			return nil, err
		}
		dst = append(dst, power{v, int64(e.Count)})
	}
	return merge(dst), nil
}

// code is encodeElem checked against the domain [1, q−1].
func (c *Con2) code(e string) (int64, error) {
	v, err := c.encodeElem(e)
	if err != nil {
		return 0, err
	}
	if v < 1 || v >= c.q {
		return 0, fmt.Errorf("accumulator: encoder produced %d outside [1, %d)", v, c.q)
	}
	return int64(v), nil
}

// merge sorts ps by exponent and adds up the multiplicities of equal
// exponents, in place.
func merge(ps []power) []power {
	slices.SortFunc(ps, func(a, b power) int { return cmp.Compare(a.i, b.i) })
	out := ps[:0]
	for _, p := range ps {
		if n := len(out); n > 0 && out[n-1].i == p.i {
			out[n-1].m += p.m
		} else {
			out = append(out, p)
		}
	}
	return out
}

// Setup implements Accumulator:
// acc(X) = (g^{Σ m_i s^{x_i}}, g^{Σ m_i s^{q−x_i}}).
func (c *Con2) Setup(x multiset.Multiset) (Acc, error) { return c.combine1(term{x: x}) }

// SetupEach is the package's SetupEach for Construction 2: every
// digest in one combineEach.
func (c *Con2) SetupEach(xs []multiset.Multiset) ([]Acc, error) {
	ts := make([]term, len(xs))
	for i, x := range xs {
		ts[i] = term{x: x}
	}
	return c.combineEach(ts)
}

// UnionEach is the package's UnionEach for Construction 2: max(m1, m2)
// = m1 + m2 − min(m1, m2) per element, so acc(x1 ∪ x2) = acc1 + acc2 −
// acc(x1 ∩ x2). The intersection is taken before encoding, so encoder
// collisions sum exactly as they do in Setup.
func (c *Con2) UnionEach(ps []Pair) ([]Acc, error) {
	ts := make([]term, len(ps))
	for i, p := range ps {
		ts[i] = term{x: multiset.Intersect(p.X1, p.X2), neg: true, accs: []Acc{p.Acc1, p.Acc2}}
	}
	return c.combineEach(ts)
}

// SumEach is the package's SumEach for Construction 2.
func (c *Con2) SumEach(groups [][]Acc) ([]Acc, error) {
	ts := make([]term, len(groups))
	for i, g := range groups {
		ts[i] = term{accs: g}
	}
	return c.combineEach(ts)
}

// term is one digest combineEach computes: Σ accs + acc(x), or Σ accs
// − acc(x) when neg.
type term struct {
	x    multiset.Multiset
	neg  bool
	accs []Acc
}

// combine1 is combineEach for a single term.
func (c *Con2) combine1(t term) (Acc, error) {
	out, err := c.combineEach([]term{t})
	if err != nil {
		return Acc{}, err
	}
	return out[0], nil
}

// combineEach returns every term's digest with one ec SumEach over
// both components of all terms, which is how Setup, Union and Sum all
// add points. A term contributes its accs and, for each element v of x
// with multiplicity m, ±m times the public-key points g^{s^v} and
// g^{s^{q−v}}. A unit multiplicity, almost every element's, adds the
// point itself; a larger one (encoder collisions, an intersection's
// min > 1) adds its scalar multiple, so every digest stays exact.
func (c *Con2) combineEach(ts []term) ([]Acc, error) {
	encs := make([][]power, len(ts))
	n := 0
	for i, t := range ts {
		enc, err := c.encode(nil, t.x)
		if err != nil {
			return nil, err
		}
		encs[i] = enc
		n += len(t.accs) + len(enc)
	}
	curve := c.pr.C
	// Group i sums term i's A points, group len(ts)+i its B points, each
	// a window of ptsA or ptsB; both are allocated once, at full size.
	ptsA := make([]ec.Point, 0, n)
	ptsB := make([]ec.Point, 0, n)
	groups := make([][]ec.Point, 2*len(ts))
	for i, t := range ts {
		startA, startB := len(ptsA), len(ptsB)
		for _, a := range t.accs {
			ptsA, ptsB = append(ptsA, a.A), append(ptsB, a.B)
		}
		for _, e := range encs[i] {
			pa, pb := c.pk[e.i], c.pk[int64(c.q)-e.i]
			if e.m != 1 {
				k := big.NewInt(e.m)
				pa, pb = curve.ScalarMul(pa, k), curve.ScalarMul(pb, k)
			}
			if t.neg {
				pa, pb = curve.Neg(pa), curve.Neg(pb)
			}
			ptsA, ptsB = append(ptsA, pa), append(ptsB, pb)
		}
		groups[i] = ptsA[startA:len(ptsA):len(ptsA)]
		groups[len(ts)+i] = ptsB[startB:len(ptsB):len(ptsB)]
	}
	sums := curve.SumEach(groups)
	out := make([]Acc, len(ts))
	for i := range out {
		out[i] = Acc{A: sums[i], B: sums[len(ts)+i]}
	}
	return out, nil
}

// ProveDisjoint implements Accumulator:
// π = g^{A(X1)(s)·B(X2)(s)} = ∏_{i,j} g^{m_i·n_j·s^{q + x_i − x_j}}.
// Every exponent index q + x_i − x_j lies in [2, 2q−2] and differs from
// q exactly when x_i ≠ x_j — so the proof is computable from the
// public key precisely for disjoint multisets. It is ProveDisjointEach
// of one pair.
func (c *Con2) ProveDisjoint(x1, x2 multiset.Multiset) (Proof, error) {
	var pf [1]Proof
	var err [1]error
	c.ProveDisjointEach([]multiset.Multiset{x1}, []multiset.Multiset{x2}, pf[:], err[:])
	return pf[0], err[0]
}

// ProveDisjointEach is the package's ProveDisjointEach for
// Construction 2.
//
// π = Σ_i m_i·pk[i] over the distinct indices i, with m_i the summed
// products of multiplicities. Writing each m_i in binary, π = Σ_b 2^b·S_b
// where S_b sums the key points whose multiplicity has bit b set: one
// SumEachIndex adds every S_b of every proof straight from the public
// key, so that the proofs share its affine rounds and their inversions
// (it admits them in waves of bounded size), and a Horner chain of a
// few doublings combines each proof's S_b. The indices, the bit groups
// and every round buffer live in a scratch set taken from c's free
// list, so proving allocates only when a set must grow (or when a
// DictEncoder must see new elements sorted).
func (c *Con2) ProveDisjointEach(x1s, x2s []multiset.Multiset, pfs []Proof, errs []error) {
	s := c.getScratch()
	defer c.putScratch(s)
	// Proof j's groups are its nbs[j] bit groups, back to back in s.idx
	// and ending at the offsets in s.ends.
	s.idx, s.ends, s.nbs = s.idx[:0], s.ends[:0], grow(s.nbs, len(x1s))
	for j := range x1s {
		s.nbs[j] = 0
		if errs[j] = c.powers(s, x1s[j], x2s[j]); errs[j] != nil {
			continue
		}
		var top uint64
		for _, p := range s.pows {
			top |= uint64(p.m)
		}
		s.nbs[j] = bits.Len64(top)
		for b := range s.nbs[j] {
			for _, p := range s.pows {
				if p.m>>b&1 == 1 {
					s.idx = append(s.idx, int32(p.i))
				}
			}
			s.ends = append(s.ends, len(s.idx))
		}
	}
	s.groups = grow(s.groups, len(s.ends))
	start := 0
	for g, end := range s.ends {
		s.groups[g], start = s.idx[start:end], end
	}
	curve := c.pr.C
	sums := curve.SumEachIndex(&s.sum, c.pk, s.groups)
	for j, nb := range s.nbs {
		if errs[j] != nil {
			continue
		}
		switch nb {
		case 0:
			pfs[j] = Proof{F1: curve.Infinity(), F2: curve.Infinity()}
		case 1:
			pfs[j] = Proof{F1: sums[0], F2: curve.Infinity()}
		default:
			var acc ec.JacPoint
			for b := nb - 1; b >= 0; b-- {
				acc = curve.JacAddMixed(curve.JacDouble(acc), sums[b])
			}
			pfs[j] = Proof{F1: curve.FromJac(acc), F2: curve.Infinity()}
		}
		sums = sums[nb:]
	}
}

// powers sets s.pows to the proof's key indices q + x_i − x_j with
// their multiplicities, ascending and merged, or fails when x1 and x2
// intersect.
func (c *Con2) powers(s *proveScratch, x1, x2 multiset.Multiset) error {
	var err error
	if s.e1, err = c.encode(grow(s.e1, len(x1))[:0], x1); err != nil {
		return err
	}
	if s.e2, err = c.encode(grow(s.e2, len(x2))[:0], x2); err != nil {
		return err
	}
	for i, j := 0, 0; i < len(s.e1) && j < len(s.e2); {
		switch v1, v2 := s.e1[i].i, s.e2[j].i; {
		case v1 == v2:
			return ErrNotDisjoint
		case v1 < v2:
			i++
		default:
			j++
		}
	}
	q := int64(c.q)
	s.pows, s.heads = mergeRuns(s.pows[:0], s.heads, s.e1, s.e2, q)
	for _, p := range s.pows {
		if p.i == q {
			return ErrNotDisjoint // defensive: cannot happen after the check above
		}
	}
	return nil
}

// head is the next pair of one run of mergeRuns: index i of e1's
// element a with e2's element b.
type head struct {
	i    int64
	a, b int32
}

// mergeRuns appends to dst the indices q + a.i − b.i for every a of e1
// and b of e2, with multiplicities a.m·b.m, ascending and with equal
// indices added up. For each b they run ascending with a (e1 is sorted),
// so the |e2| runs are merged through a heap of their heads, without
// sorting and without writing the runs out; heap is the heads' scratch.
func mergeRuns(dst []power, heap []head, e1, e2 []power, q int64) ([]power, []head) {
	heap = heap[:0]
	if len(e1) == 0 {
		return dst, heap
	}
	for b := range e2 {
		heap = append(heap, head{i: q + e1[0].i - e2[b].i, b: int32(b)})
	}
	// e2 is sorted, so the heads start in descending order: reverse
	// them into a valid min-heap.
	slices.Reverse(heap)
	start := len(dst)
	for len(heap) > 0 {
		h := heap[0]
		m := e1[h.a].m * e2[h.b].m
		if n := len(dst); n > start && dst[n-1].i == h.i {
			dst[n-1].m += m
		} else {
			dst = append(dst, power{h.i, m})
		}
		if h.a++; int(h.a) < len(e1) {
			h.i = q + e1[h.a].i - e2[h.b].i
			heap[0] = h
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(heap)
	}
	return dst, heap
}

// siftDown restores the heap order of h after a change to h[0].
func siftDown(h []head) {
	for k := 0; ; {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].i < h[c].i {
			c++
		}
		if h[k].i <= h[c].i {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

// proveScratch is the working memory of one ProveDisjointEach: the
// two encoded multisets and the (index, multiplicity) pairs of a proof,
// the merge's heap, every proof's indices grouped by multiplicity bit
// with the groups' ends and each proof's group count, and
// SumEachIndex's round buffers.
type proveScratch struct {
	e1, e2, pows []power
	heads        []head
	idx          []int32
	ends, nbs    []int
	groups       [][]int32
	sum          ec.SumScratch
}

// maxScratchBuf bounds, in bytes, each buffer of a scratch set that a
// Con2 keeps for reuse; a buffer that grew past it, for an unusually
// large proof, is dropped. It is sized to the aggregated proofs of a
// batched answer, whose groups enter sumRounds alone when they exceed
// its wave: at the default preset, a gob_prove run's largest set holds
// about 250 KB, its largest buffers the round buffer (75 KB),
// VecInvertEach's denominators and inverses (45 KB each) and the
// proof's powers (41 KB). The free list keeps at most GOMAXPROCS sets.
const maxScratchBuf = 256 << 10

// getScratch takes a scratch set from c's free list, or a new one.
func (c *Con2) getScratch() *proveScratch {
	c.freeMu.Lock()
	defer c.freeMu.Unlock()
	if n := len(c.free); n > 0 {
		s := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return s
	}
	return new(proveScratch)
}

// putScratch returns s to c's free list, which keeps at most
// GOMAXPROCS sets (as many as can prove at once), each buffer at most
// maxScratchBuf bytes. The list is not a sync.Pool: a pool's victim
// cache would keep its sets alive across a garbage collection, so the
// live heap right after one would still hold them.
func (c *Con2) putScratch(s *proveScratch) {
	s.e1, s.e2, s.pows, s.heads = trim(s.e1), trim(s.e2), trim(s.pows), trim(s.heads)
	s.idx, s.ends, s.nbs, s.groups = trim(s.idx), trim(s.ends), trim(s.nbs), trim(s.groups)
	s.sum.Trim(maxScratchBuf)
	c.freeMu.Lock()
	defer c.freeMu.Unlock()
	if len(c.free) < runtime.GOMAXPROCS(0) {
		c.free = append(c.free, s)
	}
}

// trim returns xs, or nil if its capacity holds more than maxScratchBuf
// bytes.
func trim[T any](xs []T) []T {
	var t T
	if cap(xs)*int(unsafe.Sizeof(t)) > maxScratchBuf {
		return nil
	}
	return xs
}

// grow returns xs resized to n, reallocated only when its capacity is
// short.
func grow[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
}

// VerifyDisjoint implements Accumulator: ê(dA(X1), dB(X2)) =? ê(π, g),
// checked as one product with one Miller loop and one final
// exponentiation (pairing.PairingEqual).
func (c *Con2) VerifyDisjoint(acc1, acc2 Acc, proof Proof) bool {
	return c.pr.PairingEqual(
		[]pairing.PairPair{{P: acc1.A, Q: acc2.B}},
		[]pairing.PairPair{{P: proof.F1, Q: c.pr.G}},
	)
}

// VerifyDisjointBatch implements Accumulator: the k verification
// equations ê(dA_i, dB_i) == ê(π_i, g) collapse into one randomized
// check (pairing.PairingCheckBatch). Every right-hand side (all
// against g) and the left-hand sides sharing a clause fold into one
// multi-scalar multiplication and one Miller loop per distinct second
// argument. Of the rest, those sharing a digest dA fold into one loop
// per digest: a subscription block pairs one digest with many
// clauses. The digests, and the client's sums of them, are pinned by
// the headers, and the clause accumulators are the client's own, so
// both may be looped shared. The final exponentiation happens once.
// One check is VerifyDisjoint.
func (c *Con2) VerifyDisjointBatch(checks []DisjointCheck) bool {
	if len(checks) == 1 {
		return c.VerifyDisjoint(checks[0].Acc1, checks[0].Acc2, checks[0].Proof)
	}
	eqs := make([]pairing.BatchEquation, len(checks))
	for i, ch := range checks {
		eqs[i] = pairing.BatchEquation{
			Pairs: []pairing.PairPair{{P: ch.Acc1.A, Q: ch.Acc2.B}},
			R:     ch.Proof.F1,
		}
	}
	return c.pr.PairingCheckBatch(eqs)
}

// SupportsAgg implements Accumulator.
func (c *Con2) SupportsAgg() bool { return true }

// MaxCardinality implements Accumulator: the domain is bounded but
// multiset cardinality is not.
func (c *Con2) MaxCardinality() int { return -1 }

// Sum implements Accumulator: acc(ΣX_i) = (∏ dA_i, ∏ dB_i), one
// summation per component.
func (c *Con2) Sum(accs ...Acc) (Acc, error) { return c.combine1(term{accs: accs}) }

// ProofSum implements Accumulator: aggregates proofs π_i =
// ProveDisjoint(X_i, Y) sharing the same second multiset Y into the
// proof for (ΣX_i, Y), with the same point summation as Sum. The
// caller is responsible for the shared-Y precondition (the paper states
// it as a requirement on inputs).
func (c *Con2) ProofSum(proofs ...Proof) (Proof, error) {
	pts := make([]ec.Point, len(proofs))
	for i, p := range proofs {
		pts[i] = p.F1
	}
	return Proof{F1: c.pr.C.SumEach([][]ec.Point{pts})[0], F2: c.pr.C.Infinity()}, nil
}

// AccEqual implements Accumulator.
func (c *Con2) AccEqual(a, b Acc) bool { return a.A.Equal(b.A) && a.B.Equal(b.B) }

// ValidateAcc implements Accumulator.
func (c *Con2) ValidateAcc(a Acc) bool {
	return c.pr.C.IsOnCurve(a.A) && c.pr.C.IsOnCurve(a.B)
}

// ValidateProof implements Accumulator (Construction 2 uses only F1).
func (c *Con2) ValidateProof(p Proof) bool { return c.pr.C.IsOnCurve(p.F1) }

// AccBytes implements Accumulator.
func (c *Con2) AccBytes(a Acc) []byte {
	cv := c.pr.C
	out := cv.AppendBytes(make([]byte, 0, cv.BytesLen(a.A)+cv.BytesLen(a.B)), a.A)
	return cv.AppendBytes(out, a.B)
}

// ProofBytes implements Accumulator.
func (c *Con2) ProofBytes(p Proof) []byte { return c.pr.C.Bytes(p.F1) }

// AccFromBytes implements Accumulator: decodes the (dA, dB) pair.
func (c *Con2) AccFromBytes(b []byte) (Acc, error) {
	a, rest, err := readPoint(c.pr.C, b)
	if err != nil {
		return Acc{}, err
	}
	bb, rest, err := readPoint(c.pr.C, rest)
	if err != nil {
		return Acc{}, err
	}
	if len(rest) != 0 {
		return Acc{}, fmt.Errorf("accumulator: %d trailing bytes after acc2 value", len(rest))
	}
	return Acc{A: a, B: bb}, nil
}

// ProofFromBytes implements Accumulator (Construction 2 serializes only
// π = F1; F2 is pinned to the identity, as ProveDisjoint produces).
func (c *Con2) ProofFromBytes(b []byte) (Proof, error) {
	f1, rest, err := readPoint(c.pr.C, b)
	if err != nil {
		return Proof{}, err
	}
	if len(rest) != 0 {
		return Proof{}, fmt.Errorf("accumulator: %d trailing bytes after acc2 proof", len(rest))
	}
	return Proof{F1: f1, F2: c.pr.C.Infinity()}, nil
}
