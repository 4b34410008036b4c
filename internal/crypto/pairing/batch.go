package pairing

import (
	"crypto/rand"
	"math/big"

	"github.com/vchain-go/vchain/internal/crypto/ec"
	"github.com/vchain-go/vchain/internal/crypto/ff"
)

// This file is the batched verification engine: a lockstep multi-Miller
// evaluator that shares field inversions across a whole batch, and a
// randomized multi-equation pairing check that shares one final
// exponentiation across arbitrarily many verification equations.
//
// Cost model (per verification equation, k equations in a batch):
//
//	sequential:  m Miller loops (one inversion per step) + m final exps
//	batched:     m lockstep Miller loops (1/k inversions per step)
//	             + one small G_T exponentiation
//	             + 1/k of (one Miller loop + one final exp + one MSM)
//
// Both the final exponentiation and the per-step modular inversions
// dominate a pairing (an inversion costs about 35 multiplications at
// the default preset), so collapsing them is where batched
// verification's speedup comes from.

// millerMany evaluates Miller's algorithm f_{r,P_i}(at_i) for many
// (P, at) pairs in lockstep. The doubling/addition schedule depends
// only on the shared subgroup order r, so every slot advances through
// the identical step sequence; each step's slope inversions are
// gathered across the batch and resolved with one modular inversion
// (ff.Field.InvMany), as is the final num/den division
// (ff.Ext.InvMany). Results agree exactly with pr.miller slot by slot.
func (pr *Params) millerMany(ps []ec.Point, ats []ec.Point2) []ff.Elt2 {
	n := len(ps)
	if n == 0 {
		return nil
	}
	f := pr.F
	x := pr.X
	one := x.One()

	num := make([]ff.Elt2, n)
	den := make([]ff.Elt2, n)
	v := make([]ec.Point, n)
	for i := range ps {
		num[i] = one
		den[i] = one
		v[i] = ps[i]
	}

	// Reused step buffers: the slots whose slope needs an inversion this
	// step, and their denominators.
	idx := make([]int, 0, n)
	dens := make([]ff.Elt, 0, n)

	// step advances every slot by one chord-and-tangent step: v[i]+v[i]
	// when doubling, v[i]+ps[i] when adding. Degenerate slots finish
	// immediately; the rest share one batched inversion.
	step := func(double bool) {
		idx = idx[:0]
		dens = dens[:0]
		for i := range v {
			b := ps[i]
			if double {
				b = v[i]
			}
			if d, ok := pr.millerStepDen(v[i], b); ok {
				idx = append(idx, i)
				dens = append(dens, d)
				continue
			}
			l, vert, next := pr.millerStepDegenerate(v[i], b, ats[i])
			num[i] = x.Mul(num[i], l)
			den[i] = x.Mul(den[i], vert)
			v[i] = next
		}
		if len(idx) == 0 {
			return
		}
		invs := f.InvMany(dens)
		for j, i := range idx {
			b := ps[i]
			if double {
				b = v[i]
			}
			l, vert, next := pr.millerStepFinish(v[i], b, ats[i], invs[j])
			num[i] = x.Mul(num[i], l)
			den[i] = x.Mul(den[i], vert)
			v[i] = next
		}
	}

	r := pr.R
	for i := r.BitLen() - 2; i >= 0; i-- {
		for s := range num {
			num[s] = x.Square(num[s])
			den[s] = x.Square(den[s])
		}
		step(true)
		if r.Bit(i) == 1 {
			step(false)
		}
	}

	out := x.InvMany(den)
	for i := range out {
		out[i] = x.Mul(num[i], out[i])
	}
	return out
}

// PairingCheck reports whether ∏ ê(P_i, Q_i) == 1, sharing the Miller
// loops' inversions and the single final exponentiation across all
// pairs.
func (pr *Params) PairingCheck(pairs ...PairPair) bool {
	return pr.IsOne(pr.PairProduct(pairs...))
}

// BatchEquation is one pairing-product verification equation
//
//	∏_j ê(P_j, Q_j) == ê(R, G)
//
// over the parameter set's generator G. Both accumulator constructions
// verify equations of exactly this shape: Construction 1 checks
// ê(acc₁, F₁)·ê(acc₂, F₂) == ê(G, G) (R = G) and Construction 2 checks
// ê(dA, dB) == ê(π, G) (R = π).
type BatchEquation struct {
	// Pairs is the left-hand pairing product.
	Pairs []PairPair
	// R is the right-hand side's first pairing argument.
	R ec.Point
}

// batchExponentBits bounds the randomizer width (and therefore the
// per-equation G_T exponentiation cost). A cheating batch survives with
// probability ≤ 2^{1−batchExponentBits}.
const batchExponentBits = 64

// PairingCheckBatch verifies k equations together with overwhelming
// soundness: it samples independent random small exponents e_i
// (e_1 = 1) and accepts iff
//
//	∏_i (∏_j ê(P_ij, Q_ij))^{e_i} · ∏_i ê(−R_i, G)^{e_i}  ==  1.
//
// Every RHS is one more pair (−R_i, G) of the product, so the whole
// batch is a single flat multi-pairing. Three structural collapses
// make it cheap:
//
//   - pairs sharing a second argument Q merge by bilinearity —
//     ∏ ê(P_i, Q)^{e_i} = ê(Σ e_i·P_i, Q) — into one Pippenger
//     multi-scalar multiplication (64-bit scalars) and ONE Miller
//     loop per distinct Q. All RHSs share G, and vChain verifier
//     batches check many digests against the few clause accumulators
//     of one query, so the dominant arguments repeat heavily;
//   - the Miller loops that remain (one per distinct Q) run in
//     lockstep with batched slope inversions (millerMany);
//   - the dominant final exponentiation is performed exactly once for
//     the whole batch. Pairs whose Q is unique keep their Miller value
//     and fold the randomizer in as one small G_T exponentiation per
//     equation.
//
// A true batch is always accepted (the collapses are exact identities
// of the reduced pairing). A batch containing any false equation is
// rejected except with probability ≤ 2^{1−λ} over the verifier's own
// coins, λ = min(64, |r|−1) — the adversary cannot influence the
// exponents, which are drawn from crypto/rand after the equations are
// fixed.
func (pr *Params) PairingCheckBatch(eqs []BatchEquation) bool {
	k := len(eqs)
	if k == 0 {
		return true
	}

	exps := make([]*big.Int, k)
	exps[0] = big.NewInt(1)
	lambda := batchExponentBits
	if rb := pr.R.BitLen() - 1; rb < lambda {
		lambda = rb
	}
	bound := new(big.Int).Lsh(big.NewInt(1), uint(lambda))
	for i := 1; i < k; i++ {
		e, err := rand.Int(rand.Reader, bound)
		if err != nil || e.Sign() == 0 {
			// A broken system randomness source must not turn into a
			// false accept; degenerate to the always-sound exponent 1.
			e = big.NewInt(1)
		}
		exps[i] = e
	}

	// Bucket every pair of the flat product by its second argument.
	type bucket struct {
		q      ec.Point
		pts    []ec.Point
		ks     []*big.Int
		owners []int
	}
	var order []*bucket
	buckets := make(map[string]*bucket)
	add := func(p, q ec.Point, eq int) {
		if p.Inf || q.Inf {
			return // contributes the identity
		}
		key := string(pr.C.Bytes(q))
		b := buckets[key]
		if b == nil {
			b = &bucket{q: q}
			buckets[key] = b
			order = append(order, b)
		}
		b.pts = append(b.pts, p)
		b.ks = append(b.ks, exps[eq])
		b.owners = append(b.owners, eq)
	}
	for i := range eqs {
		for _, pp := range eqs[i].Pairs {
			add(pp.P, pp.Q, i)
		}
		add(pr.C.Neg(eqs[i].R), pr.G, i)
	}

	// Shared-Q buckets collapse through one MSM each; unique-Q pairs
	// keep their point untouched and apply the randomizer in G_T,
	// grouped per owning equation so each equation pays at most one
	// small exponentiation.
	var (
		ps      []ec.Point
		ats     []ec.Point2
		gtOwner []int // equation applying its exponent in G_T, or −1
		// eqSingle accumulates each equation's unique-Q Miller values;
		// eqHas tracks presence explicitly — a zero value is NOT used as
		// the "unset" sentinel, because a hostile on-curve input can
		// drive a line evaluation (and so a Miller value) to exactly
		// zero, and such an equation must poison the product like it
		// poisons the sequential pairing, not silently drop out.
		eqSingle = make([]ff.Elt2, k)
		eqHas    = make([]bool, k)
	)
	for _, b := range order {
		if len(b.pts) == 1 {
			ps = append(ps, b.pts[0])
			ats = append(ats, pr.C2.Distort(b.q))
			gtOwner = append(gtOwner, b.owners[0])
			continue
		}
		s := pr.C.MultiScalarMul(b.pts, b.ks)
		if s.Inf {
			continue // ê(∞, Q) = 1
		}
		ps = append(ps, s)
		ats = append(ats, pr.C2.Distort(b.q))
		gtOwner = append(gtOwner, -1)
	}

	one := pr.X.One()
	ms := pr.millerMany(ps, ats)
	acc := one
	for j, m := range ms {
		i := gtOwner[j]
		if i < 0 {
			acc = pr.X.Mul(acc, m) // randomizer already in the points
			continue
		}
		if !eqHas[i] {
			eqSingle[i] = m
			eqHas[i] = true
		} else {
			eqSingle[i] = pr.X.Mul(eqSingle[i], m)
		}
	}
	for i := 0; i < k; i++ {
		if !eqHas[i] {
			continue
		}
		if eqSingle[i].IsZero() {
			// A zero Miller value cannot equal any RHS after the final
			// exponentiation (the sequential pairing compares unequal
			// too); exponentiating zero would panic in Inv-free paths,
			// so reject outright.
			return false
		}
		if exps[i].BitLen() == 1 { // e == 1, in particular equation 0
			acc = pr.X.Mul(acc, eqSingle[i])
			continue
		}
		acc = pr.X.Mul(acc, pr.X.Exp(eqSingle[i], exps[i]))
	}

	return pr.X.Exp(acc, pr.finalExp).Equal(one)
}
