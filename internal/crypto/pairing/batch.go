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
//	batched:     the Miller loops of pairs that share neither argument
//	             with another pair, plus one 64-bit F_p² power per
//	             equation that has any
//	             + 1/k of (one Miller loop and one 64-bit MSM per shared
//	               Q, then per shared P among the pairs left, and one
//	               final exponentiation)
//
// A Miller step costs about 25 field multiplications and no inversion
// (millerLoop); a final exponentiation about a fifth of a Miller loop.
// In vChain every right-hand side is against G and a query's
// left-hand sides are against its few clause accumulators, so they
// collapse into one loop per distinct Q. A subscription block's
// checks pair one block digest with a different clause each; those
// collapse into one loop per digest. That is where batched
// verification's speedup comes from.

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
//     ec.Curve.MultiScalarMulShort) and ONE Miller loop per distinct
//     Q. All RHSs share G, and vChain verifier batches check many
//     digests against the few clause accumulators of one query, so
//     the dominant arguments repeat heavily. Of the pairs left alone
//     on their Q, those sharing a first argument P of Pairs merge the
//     same way in the other argument: ∏ ê(P, Q_j)^{e_j} =
//     ê(P, Σ e_j·Q_j), one loop per distinct P. A subscription
//     block's checks pair one digest with many clauses;
//   - every loop whose randomizer is already in its point runs in one
//     multi-pair Miller loop. Pairs that share neither argument keep
//     their points: each equation's such pairs run as one loop whose
//     value is raised to e_i once in F_p²;
//   - the final exponentiation is performed exactly once for the whole
//     batch.
//
// The Q-side collapse is exact for first arguments in G. The P-side
// collapse is exact when the shared P is in G, for any on-curve Qs:
// the reduced pairing with P ∈ G[r] is a homomorphism in Q, and a
// torsion component of Q pairs to 1. Callers therefore put as first
// arguments of Pairs only points they vouch for, such as digests a
// header pins and accumulators they computed themselves; an R is
// never merged on its first argument. For such batches a true batch
// is always accepted. A batch containing any false equation is
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
// for positive exponents, collapsed as PairingCheckBatch describes: it
// plans the batch, then runs the plan.
func (pr *Params) batchProduct(eqs []BatchEquation, exps []*big.Int) GT {
	return pr.runPlan(pr.planBatch(eqs, exps), exps)
}

// sum is one argument of a planned Miller pair: Σ ks_j·pts_j, or
// pts[0] itself when ks is nil.
type sum struct {
	pts []ec.Point
	ks  []*big.Int
}

// plannedPair is one Miller pair of a batch plan.
type plannedPair struct {
	p, q sum
}

// batchPlan is how batchProduct evaluates a batch. The shared pairs
// carry their randomizers inside their points and run as one
// multi-pair Miller loop. own[i] holds equation i's pairs that share
// neither argument, whose loop value is raised to e_i in F_p².
type batchPlan struct {
	shared []plannedPair
	own    [][]PairPair
}

// batchPair is one pair of a batch's flat product: its arguments, its
// equation, and whether it is the equation's (−R, G).
type batchPair struct {
	p, q  ec.Point
	eq    int
	fromR bool
}

// groupBy splits pairs into runs of equal key, in order of first
// appearance. ec.Point is comparable, and equal points of one curve
// have equal fields.
func groupBy(pairs []batchPair, key func(batchPair) ec.Point) [][]batchPair {
	var out [][]batchPair
	at := make(map[ec.Point]int)
	for _, bp := range pairs {
		i, ok := at[key(bp)]
		if !ok {
			i = len(out)
			at[key(bp)] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], bp)
	}
	return out
}

// planBatch decides batchProduct's Miller pairs without computing any
// of them. Pairs are grouped by their second argument; a pair alone
// there joins a group by its first argument, unless it is an R. A
// group of several is one shared pair through an MSM over the side
// that differs. A pair alone in both stays as it is: shared when its
// randomizer is 1 (equation 0), else in its equation's own loop. A
// Miller value of zero, which a hostile on-curve input can force by
// making a line vanish, zeroes the product, and finalExp keeps it
// zero: the batch rejects, as the sequential check does.
func (pr *Params) planBatch(eqs []BatchEquation, exps []*big.Int) batchPlan {
	var flat []batchPair
	add := func(p, q ec.Point, eq int, fromR bool) {
		if !p.Inf && !q.Inf { // else it contributes the identity
			flat = append(flat, batchPair{p: p, q: q, eq: eq, fromR: fromR})
		}
	}
	for i := range eqs {
		for _, pp := range eqs[i].Pairs {
			add(pp.P, pp.Q, i, false)
		}
		add(pr.C.Neg(eqs[i].R), pr.G, i, true)
	}

	pl := batchPlan{own: make([][]PairPair, len(eqs))}
	one := func(p ec.Point) sum { return sum{pts: []ec.Point{p}} }
	alone := func(bp batchPair) {
		if exps[bp.eq].BitLen() > 1 {
			pl.own[bp.eq] = append(pl.own[bp.eq], PairPair{P: bp.p, Q: bp.q})
		} else {
			pl.shared = append(pl.shared, plannedPair{p: one(bp.p), q: one(bp.q)})
		}
	}
	var lone []batchPair
	for _, g := range groupBy(flat, func(bp batchPair) ec.Point { return bp.q }) {
		switch {
		case len(g) > 1:
			var s sum
			for _, bp := range g {
				s.pts, s.ks = append(s.pts, bp.p), append(s.ks, exps[bp.eq])
			}
			pl.shared = append(pl.shared, plannedPair{p: s, q: one(g[0].q)})
		case g[0].fromR:
			alone(g[0])
		default:
			lone = append(lone, g[0])
		}
	}
	for _, g := range groupBy(lone, func(bp batchPair) ec.Point { return bp.p }) {
		if len(g) == 1 {
			alone(g[0])
			continue
		}
		var s sum
		for _, bp := range g {
			s.pts, s.ks = append(s.pts, bp.q), append(s.ks, exps[bp.eq])
		}
		pl.shared = append(pl.shared, plannedPair{p: one(g[0].p), q: s})
	}
	return pl
}

// runPlan computes a plan's MSMs, its Miller loops split across up to
// GOMAXPROCS goroutines, and the one final exponentiation.
func (pr *Params) runPlan(pl batchPlan, exps []*big.Int) GT {
	point := func(s sum) ec.Point {
		if s.ks == nil {
			return s.pts[0]
		}
		return pr.C.MultiScalarMulShort(s.pts, s.ks)
	}
	var shared []millerArg
	for _, mp := range pl.shared {
		shared = pr.millerArgs(shared, []PairPair{{P: point(mp.p), Q: point(mp.q)}}, false)
	}
	terms := splitArgs(nil, shared, runtime.GOMAXPROCS(0))
	for i, pairs := range pl.own {
		if args := pr.millerArgs(nil, pairs, false); len(args) > 0 {
			terms = append(terms, millerTerm{args: args, exp: exps[i]})
		}
	}
	return GT{V: pr.finalExp(pr.millerTerms(terms))}
}
