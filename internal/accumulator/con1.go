package accumulator

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"

	"github.com/vchain-go/vchain/internal/crypto/ec"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/crypto/poly"
	"github.com/vchain-go/vchain/internal/multiset"
	"github.com/vchain-go/vchain/internal/par"
)

// scalarCacheMax bounds the element→scalar caches; past it the cache is
// reset wholesale (the vocabulary of a vChain workload is far smaller).
const scalarCacheMax = 1 << 16

// Con1 is Construction 1 (q-SDH based). Its public key is
// (g, g^s, …, g^{s^q}); the capacity q bounds the cardinality of any
// multiset it can accumulate (and therefore the degree of any Bézout
// cofactor it must commit to).
type Con1 struct {
	pr *pairing.Params
	// q is the maximum multiset cardinality.
	q int
	// pk[i] = g^{s^i}, i = 0..q.
	pk []ec.Point
	// ring is Z_r for characteristic polynomials.
	ring *poly.Ring
	// eGG caches ê(g, g), the right-hand side of every verification.
	eGG pairing.GT
	// scalarMu guards scalarCache: element string → hashed Z_r scalar.
	// Every Setup/Prove re-hashes its whole multiset; proofs over the
	// same windows hit the same elements over and over, so the SHA-256 +
	// reduction is paid once per element. Cached values are read-only.
	scalarMu    sync.RWMutex
	scalarCache map[string]*big.Int
}

// KeyGenCon1 runs the trusted setup for Construction 1 with a fresh
// random trapdoor. The trapdoor s never leaves this function.
func KeyGenCon1(pr *pairing.Params, q int) (*Con1, error) {
	s, err := rand.Int(rand.Reader, pr.R)
	if err != nil {
		return nil, fmt.Errorf("accumulator: sampling trapdoor: %w", err)
	}
	if s.Sign() == 0 {
		s.SetInt64(1)
	}
	return keyGenCon1WithTrapdoor(pr, q, s), nil
}

// KeyGenCon1Deterministic derives the trapdoor from a seed. Tests and
// reproducible benchmarks use this; production setups must use
// KeyGenCon1.
func KeyGenCon1Deterministic(pr *pairing.Params, q int, seed []byte) *Con1 {
	s := pr.RandScalar(append([]byte("con1-trapdoor/"), seed...))
	return keyGenCon1WithTrapdoor(pr, q, s)
}

func keyGenCon1WithTrapdoor(pr *pairing.Params, q int, s *big.Int) *Con1 {
	if q < 1 {
		panic("accumulator: capacity must be ≥ 1")
	}
	pk := make([]ec.Point, q+1)
	pk[0] = pr.G
	powerBaseMuls(pr, s, pk[1:])
	return &Con1{
		pr:          pr,
		q:           q,
		pk:          pk,
		ring:        poly.NewRing(pr.R),
		eGG:         pr.PairBase(),
		scalarCache: make(map[string]*big.Int),
	}
}

// powerBaseMuls fills dst[i] = g^{s^{i+1}} for the shared trusted-setup
// shape of both constructions: the powers of the trapdoor are chained
// serially (cheap big.Int work), then the expensive fixed-base scalar
// multiplications fan out (par.For) over one immutable window table.
func powerBaseMuls(pr *pairing.Params, s *big.Int, dst []ec.Point) {
	n := len(dst)
	if n == 0 {
		return
	}
	// Every public-key element is a power of the same base; a
	// fixed-base window table makes the n scalar multiplications ~4×
	// cheaper.
	fb := ec.NewFixedBase(pr.C, pr.G, pr.R.BitLen())
	scalars := make([]*big.Int, n)
	cur := new(big.Int).SetInt64(1)
	for i := 0; i < n; i++ {
		next := new(big.Int).Mul(cur, s)
		next.Mod(next, pr.R)
		scalars[i] = next
		cur = next
	}
	js := make([]ec.JacPoint, n)
	par.For(n, n, func(i int) { js[i] = fb.MulJac(scalars[i]) })
	// One batch inversion for the whole public key instead of one per
	// element.
	copy(dst, pr.C.NormalizeJac(js))
}

// Name implements Accumulator.
func (c *Con1) Name() string { return "acc1" }

// Capacity returns the maximum multiset cardinality q.
func (c *Con1) Capacity() int { return c.q }

// Params exposes the pairing parameters (needed by VO size accounting).
func (c *Con1) Params() *pairing.Params { return c.pr }

// elemScalar hashes one element into Z_r*, memoized across calls.
func (c *Con1) elemScalar(e string) *big.Int {
	c.scalarMu.RLock()
	v, ok := c.scalarCache[e]
	c.scalarMu.RUnlock()
	if ok {
		return v
	}
	v = c.pr.RandScalar([]byte(e))
	c.scalarMu.Lock()
	if len(c.scalarCache) >= scalarCacheMax {
		c.scalarCache = make(map[string]*big.Int)
	}
	c.scalarCache[e] = v
	c.scalarMu.Unlock()
	return v
}

// elemScalars hashes each occurrence of the multiset into Z_r*.
func (c *Con1) elemScalars(x multiset.Multiset) []*big.Int {
	occ := x.Expand()
	out := make([]*big.Int, len(occ))
	for i, e := range occ {
		out[i] = c.elemScalar(e)
	}
	return out
}

// charPoly returns P(X) = ∏ (x_i + X) over the hashed elements.
func (c *Con1) charPoly(x multiset.Multiset) poly.Poly {
	return c.ring.FromRoots(c.elemScalars(x))
}

// commit evaluates g^{P(s)} in the exponent using the public key:
// g^{Σ c_i s^i} = ∏ pk[i]^{c_i}, as one multi-scalar multiplication
// (Pippenger) instead of a scalar multiplication per coefficient.
func (c *Con1) commit(p poly.Poly) (ec.Point, error) {
	if p.Degree() > c.q {
		return ec.Point{}, capErr("polynomial degree", p.Degree(), c.q)
	}
	pts := make([]ec.Point, 0, p.Degree()+1)
	ks := make([]*big.Int, 0, p.Degree()+1)
	for i := 0; i <= p.Degree(); i++ {
		ci := p.Coeff(i)
		if ci.Sign() == 0 {
			continue
		}
		pts = append(pts, c.pk[i])
		ks = append(ks, ci)
	}
	return c.pr.C.MultiScalarMul(pts, ks), nil
}

// Setup implements Accumulator: acc(X) = g^{∏ (x_i + s)}.
func (c *Con1) Setup(x multiset.Multiset) (Acc, error) {
	if n := x.Cardinality(); n > c.q {
		return Acc{}, capErr("multiset", n, c.q)
	}
	pt, err := c.commit(c.charPoly(x))
	if err != nil {
		return Acc{}, err
	}
	return Acc{A: pt, B: c.pr.C.Infinity()}, nil
}

// ProveDisjoint implements Accumulator. With X1 ∩ X2 = ∅ the
// characteristic polynomials share no root, so the extended Euclidean
// algorithm yields Q1, Q2 with P1·Q1 + P2·Q2 = 1; the proof commits to
// both cofactors.
func (c *Con1) ProveDisjoint(x1, x2 multiset.Multiset) (Proof, error) {
	if !multiset.Disjoint(x1, x2) {
		return Proof{}, ErrNotDisjoint
	}
	if n := x1.Cardinality(); n > c.q {
		return Proof{}, capErr("first multiset", n, c.q)
	}
	if n := x2.Cardinality(); n > c.q {
		return Proof{}, capErr("second multiset", n, c.q)
	}
	p1 := c.charPoly(x1)
	p2 := c.charPoly(x2)
	g, u, v := c.ring.ExtGCD(p1, p2)
	if !c.ring.Equal(g, c.ring.One()) {
		// Disjoint multisets can still collide after hashing to Z_r —
		// negligible for a collision-resistant hash, but fail loudly.
		return Proof{}, fmt.Errorf("accumulator: hashed elements collide, gcd %v", g)
	}
	f1, err := c.commit(u)
	if err != nil {
		return Proof{}, err
	}
	f2, err := c.commit(v)
	if err != nil {
		return Proof{}, err
	}
	return Proof{F1: f1, F2: f2}, nil
}

// VerifyDisjoint implements Accumulator:
// ê(acc1, F1) · ê(acc2, F2) =? ê(g, g), computed as a pairing product
// so the dominant final exponentiation happens once.
func (c *Con1) VerifyDisjoint(acc1, acc2 Acc, proof Proof) bool {
	lhs := c.pr.PairProduct(
		pairing.PairPair{P: acc1.A, Q: proof.F1},
		pairing.PairPair{P: acc2.A, Q: proof.F2},
	)
	return lhs.Equal(c.eGG)
}

// VerifyDisjointBatch implements Accumulator: the k verification
// equations ê(acc1_i, F1_i)·ê(acc2_i, F2_i) == ê(g, g) collapse into
// one randomized pairing-product check with a single final
// exponentiation, shared Miller loops, and one multi-scalar
// right-hand side (pairing.PairingCheckBatch). Every looped point is
// an accumulator, never a proof: the checks of one clause share its
// accumulator as their first argument, and their pairs merge on it.
func (c *Con1) VerifyDisjointBatch(checks []DisjointCheck) bool {
	if len(checks) == 1 {
		return c.VerifyDisjoint(checks[0].Acc1, checks[0].Acc2, checks[0].Proof)
	}
	eqs := make([]pairing.BatchEquation, len(checks))
	for i, ch := range checks {
		eqs[i] = pairing.BatchEquation{
			Pairs: []pairing.PairPair{
				{P: ch.Acc1.A, Q: ch.Proof.F1},
				{P: ch.Acc2.A, Q: ch.Proof.F2},
			},
			R: c.pr.G,
		}
	}
	return c.pr.PairingCheckBatch(eqs)
}

// SupportsAgg implements Accumulator: Construction 1 cannot aggregate.
func (c *Con1) SupportsAgg() bool { return false }

// MaxCardinality implements Accumulator: the key bounds multiset size.
func (c *Con1) MaxCardinality() int { return c.q }

// Sum implements Accumulator (unsupported).
func (c *Con1) Sum(...Acc) (Acc, error) { return Acc{}, ErrAggUnsupported }

// ProofSum implements Accumulator (unsupported).
func (c *Con1) ProofSum(...Proof) (Proof, error) { return Proof{}, ErrAggUnsupported }

// AccEqual implements Accumulator.
func (c *Con1) AccEqual(a, b Acc) bool { return a.A.Equal(b.A) }

// ValidateAcc implements Accumulator (Construction 1 uses only A).
func (c *Con1) ValidateAcc(a Acc) bool { return c.pr.C.IsOnCurve(a.A) }

// ValidateProof implements Accumulator.
func (c *Con1) ValidateProof(p Proof) bool {
	return c.pr.C.IsOnCurve(p.F1) && c.pr.C.IsOnCurve(p.F2)
}

// AccBytes implements Accumulator.
func (c *Con1) AccBytes(a Acc) []byte { return c.pr.C.Bytes(a.A) }

// ProofBytes implements Accumulator.
func (c *Con1) ProofBytes(p Proof) []byte {
	cv := c.pr.C
	out := cv.AppendBytes(make([]byte, 0, cv.BytesLen(p.F1)+cv.BytesLen(p.F2)), p.F1)
	return cv.AppendBytes(out, p.F2)
}

// AccFromBytes implements Accumulator (Construction 1 serializes only
// the A point; B is pinned to the identity, as Setup produces).
func (c *Con1) AccFromBytes(b []byte) (Acc, error) {
	a, rest, err := readPoint(c.pr.C, b)
	if err != nil {
		return Acc{}, err
	}
	if len(rest) != 0 {
		return Acc{}, fmt.Errorf("accumulator: %d trailing bytes after acc1 value", len(rest))
	}
	return Acc{A: a, B: c.pr.C.Infinity()}, nil
}

// ProofFromBytes implements Accumulator.
func (c *Con1) ProofFromBytes(b []byte) (Proof, error) {
	f1, rest, err := readPoint(c.pr.C, b)
	if err != nil {
		return Proof{}, err
	}
	f2, rest, err := readPoint(c.pr.C, rest)
	if err != nil {
		return Proof{}, err
	}
	if len(rest) != 0 {
		return Proof{}, fmt.Errorf("accumulator: %d trailing bytes after acc1 proof", len(rest))
	}
	return Proof{F1: f1, F2: f2}, nil
}
