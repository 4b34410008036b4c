package pairing

import (
	"crypto/rand"
	"math/big"
	"runtime"

	"github.com/vchain-go/vchain/internal/crypto/ec"
)

// This file is the batched verification engine: a randomized
// multi-equation pairing check that shares one final exponentiation
// across arbitrarily many verification equations.
//
// Cost model (per verification equation, k equations in a batch, each
// with m pairs):
//
//	sequential:  m Miller loops + one final exponentiation
//	batched:     the Miller loops of pairs whose Q no other pair shares,
//	             plus one 64-bit F_p² power per equation that has any
//	             + 1/k of (one Miller loop per shared Q, one 64-bit MSM
//	               per shared Q, one final exponentiation)
//
// A Miller step costs about 25 field multiplications and no inversion
// (millerLoop); a final exponentiation about a fifth of a Miller loop. The
// pairs sharing a Q, in vChain every right-hand side (all against G)
// and every left-hand side against one of a query's few clause
// accumulators, collapse into one loop per distinct Q, which is where
// batched verification's speedup comes from.

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
//     ∏ ê(P_i, Q)^{e_i} = ê(Σ e_i·P_i, Q) — into one multi-scalar
//     multiplication (64-bit scalars, so usually the Straus method of
//     ec.Curve.MultiScalarMulShort)
//     and ONE Miller loop per distinct Q. All RHSs share G, and vChain
//     verifier batches check many digests against the few clause
//     accumulators of one query, so the dominant arguments repeat
//     heavily;
//   - every loop whose randomizer is already in its point runs in one
//     multi-pair Miller loop. Pairs whose Q is unique keep their point:
//     each equation's such pairs run as one loop whose value is raised
//     to e_i once in F_p²;
//   - the final exponentiation is performed exactly once for the whole
//     batch.
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
	return pr.IsOne(pr.batchProduct(eqs, exps))
}

// batchProduct returns ∏_i (∏_j ê(P_ij, Q_ij) · ê(−R_i, G))^{exps_i}
// for positive exponents, collapsed as PairingCheckBatch describes.
func (pr *Params) batchProduct(eqs []BatchEquation, exps []*big.Int) GT {
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

	// Shared-Q buckets collapse through one MSM each and carry their
	// randomizer inside the point, as do the pairs of equation 0
	// (e = 1). Every other unique-Q pair joins its equation's loop,
	// whose value takes the randomizer in F_p². A Miller value of zero,
	// which a hostile on-curve input can force by making a line vanish,
	// zeroes the product, and finalExp keeps it zero: the batch rejects,
	// as the sequential check does.
	var shared []millerArg
	own := make([][]millerArg, len(eqs))
	for _, b := range order {
		if len(b.pts) == 1 {
			pair := []PairPair{{P: b.pts[0], Q: b.q}}
			if i := b.owners[0]; exps[i].BitLen() > 1 {
				own[i] = pr.millerArgs(own[i], pair, false)
			} else {
				shared = pr.millerArgs(shared, pair, false)
			}
			continue
		}
		s := pr.C.MultiScalarMulShort(b.pts, b.ks)
		shared = pr.millerArgs(shared, []PairPair{{P: s, Q: b.q}}, false)
	}

	n := runtime.GOMAXPROCS(0)
	terms := splitArgs(nil, shared, n)
	for i, args := range own {
		if len(args) > 0 {
			terms = append(terms, millerTerm{args: args, exp: exps[i]})
		}
	}
	return GT{V: pr.finalExp(pr.millerTerms(terms, n))}
}
