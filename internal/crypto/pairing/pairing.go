package pairing

import (
	"math/big"
	"runtime"

	"github.com/vchain-go/vchain/internal/crypto/ec"
	"github.com/vchain-go/vchain/internal/crypto/ff"
	"github.com/vchain-go/vchain/internal/par"
)

// GT is an element of the target group, the order-r subgroup of F_p²*.
type GT struct {
	V ff.Elt2
}

// GTOne returns the identity of G_T.
func (pr *Params) GTOne() GT { return GT{V: pr.X.One()} }

// GTMul returns a·b in G_T.
func (pr *Params) GTMul(a, b GT) GT { return GT{V: pr.X.Mul(a.V, b.V)} }

// GTExp returns a^k in G_T.
func (pr *Params) GTExp(a GT, k *big.Int) GT { return GT{V: pr.X.Exp(a.V, k)} }

// Equal reports G_T equality.
func (a GT) Equal(b GT) bool { return a.V.Equal(b.V) }

// IsOne reports whether a is the identity.
func (pr *Params) IsOne(a GT) bool { return a.V.Equal(pr.X.One()) }

// Pair computes the modified Tate pairing ê(P, Q) for P, Q in the
// order-r subgroup of E(F_p). ê(∞, Q) = ê(P, ∞) = 1.
func (pr *Params) Pair(p, q ec.Point) GT { return pr.PairProduct(PairPair{P: p, Q: q}) }

// PairBase returns ê(G, G) for the canonical generator.
func (pr *Params) PairBase() GT { return pr.Pair(pr.G, pr.G) }

// PairPair is one (P, Q) argument of a pairing product.
type PairPair struct {
	P, Q ec.Point
}

// PairProduct computes ∏ ê(P_i, Q_i) with one Miller loop over all
// pairs and a single final exponentiation. Verifications of the form
// ê(a,b)·ê(c,d) =? ê(g,g) (Construction 1) run almost twice as fast
// this way as separate pairings.
func (pr *Params) PairProduct(pairs ...PairPair) GT {
	args := pr.millerArgs(nil, pairs, false)
	if len(args) == 0 {
		return pr.GTOne()
	}
	return GT{V: pr.finalExp(pr.millerLoop(args))}
}

// PairingEqual reports whether ∏ ê(lhs) == ∏ ê(rhs), as one product
// with one final exponentiation: the right-hand Miller values enter
// conjugated, and on G_T (elements of norm 1) the conjugate is the
// inverse. Conjugating a Miller value rather than negating its point
// keeps the verdict exactly that of comparing the two sides' pairings
// for every on-curve input, the points outside G included.
func (pr *Params) PairingEqual(lhs, rhs []PairPair) bool {
	args := pr.millerArgs(pr.millerArgs(nil, lhs, false), rhs, true)
	if len(args) == 0 {
		return true
	}
	return pr.IsOne(GT{V: pr.finalExp(pr.millerLoop(args))})
}

// millerArg is one pair of a Miller loop: the looped point P and the
// evaluation point φ(Q). inv marks a pair whose Miller value enters the
// product conjugated.
type millerArg struct {
	p   ec.Point
	at  ec.Point2
	inv bool
}

// millerArgs appends the pairs' loop arguments to args. A pair with an
// argument at infinity contributes the identity and is dropped.
func (pr *Params) millerArgs(args []millerArg, pairs []PairPair, inv bool) []millerArg {
	for _, pp := range pairs {
		if pp.P.Inf || pp.Q.Inf {
			continue
		}
		args = append(args, millerArg{p: pp.P, at: pr.C2.Distort(pp.Q), inv: inv})
	}
	return args
}

// millerLoop returns ∏ f_{r,P_i}(φ(Q_i)), up to a factor in F_p*, for
// the non-empty args, cut into GOMAXPROCS contiguous ranges run on up
// to as many goroutines.
func (pr *Params) millerLoop(args []millerArg) ff.Elt2 {
	return pr.millerTerms(splitArgs(nil, args, runtime.GOMAXPROCS(0)))
}

// millerTerm is one factor of a Miller product: the value of one loop
// over args (millerRange), raised to exp unless exp is nil.
type millerTerm struct {
	args []millerArg
	exp  *big.Int
}

// splitArgs appends args to terms as at most n contiguous ranges.
func splitArgs(terms []millerTerm, args []millerArg, n int) []millerTerm {
	n = min(n, len(args))
	for w := range n {
		terms = append(terms, millerTerm{args: args[w*len(args)/n : (w+1)*len(args)/n]})
	}
	return terms
}

// millerTerms returns the product of the terms' values, computing them
// on up to GOMAXPROCS goroutines, the caller's included (par.For). A
// range's value is the product of its pairs' values, so cutting a loop
// into ranges changes nothing, element for element: F_p²
// multiplication commutes, and a zero value (a vanishing line) still
// zeroes the product. Where the field has the 8-lane kernel, the pairs run in its
// lanes instead (millerLanes), with the same values.
func (pr *Params) millerTerms(terms []millerTerm) ff.Elt2 {
	if pr.lanes() {
		return pr.millerLanes(terms)
	}
	vals := make([]ff.Elt2, len(terms))
	par.For(len(terms), func(i int) {
		v := pr.millerRange(terms[i].args)
		if terms[i].exp != nil {
			v = pr.X.Exp(v, terms[i].exp)
		}
		vals[i] = v
	})
	f := pr.X.One()
	for _, v := range vals {
		f = pr.X.Mul(f, v)
	}
	return f
}

// millerRange returns ∏ f_{r,P_i}(φ(Q_i)), up to a factor in F_p*, for
// the non-empty args: one loop over the signed digits of r (its NAF,
// rNAF) that advances every pair's point and shares the accumulator's
// squaring.
//
// Each step runs in Jacobian coordinates with no inversion. The
// tangent or chord l and the vertical v through the new point are
// scaled by the factor in F_p* that clears their denominators, and the
// step multiplies f by l·conj(v) instead of dividing by v: 1/v =
// conj(v)/N(v) with the norm N(v) in F_p. Every such F_p* factor is
// removed by the final exponentiation, since p−1 divides (p²−1)/r. A
// digit −1 adds −P and multiplies in conj(v_P(φ(Q))), the constant the
// identity f_{n−1,P} = f_{n,P}·l_{nP,−P}/(v_{(n−1)P}·v_P) leaves
// beside the usual step.
//
// Degenerate steps (T = ∞, T of order 2, T = ±P) take the affine
// millerStep, which follows the divisor conventions exactly. The lines
// are all F_p-rational, so this schedule and the binary affine one
// give functions with the same divisor that differ by an F_p*
// constant: the reduced pairing is bit-identical. For Q in G, x_Q ≠ 0,
// so φ(Q) is not F_p-rational and no line or vertical vanishes there.
func (pr *Params) millerRange(args []millerArg) ff.Elt2 {
	ts := make([]ec.JacPoint, len(args))
	for i, a := range args {
		ts[i] = pr.C.ToJac(a.p)
	}
	return pr.millerFrom(args, ts, pr.X.One(), len(pr.rNAF)-2)
}

// millerFrom runs millerRange's loop from digit top of rNAF down to 0,
// starting from the points ts and the value f, which it advances.
func (pr *Params) millerFrom(args []millerArg, ts []ec.JacPoint, f ff.Elt2, top int) ff.Elt2 {
	x := pr.X
	negs := make([]ec.Point, len(args))
	subs := make([]ff.Elt2, len(args))
	for i, a := range args {
		negs[i] = pr.C.Neg(a.p)
		subs[i] = x.Conj(pr.verticalAt(a.p.X, a.at))
	}
	mul := func(i int, g ff.Elt2) {
		if args[i].inv {
			g = x.Conj(g)
		}
		f = x.Mul(f, g)
	}
	for d := top; d >= 0; d-- {
		f = x.Square(f)
		for i := range args {
			var g ff.Elt2
			ts[i], g = pr.doubleStep(ts[i], args[i].at)
			mul(i, g)
		}
		switch pr.rNAF[d] {
		case 1:
			for i := range args {
				var g ff.Elt2
				ts[i], g = pr.addStep(ts[i], args[i].p, args[i].at)
				mul(i, g)
			}
		case -1:
			for i := range args {
				var g ff.Elt2
				ts[i], g = pr.addStep(ts[i], negs[i], args[i].at)
				mul(i, x.Mul(g, subs[i]))
			}
		}
	}
	return f
}

// doubleStep returns 2T and l_{T,T}·conj(v_{2T}) at `at`, both scaled
// into F_p* multiples. With T = (X, Y, Z), the tangent times 2Y·Z³ is
// 2YZ³·y_at − 2Y² + 3X³ − 3X²Z²·x_at, and the vertical through
// 2T = (X₃, Y₃, Z₃) times Z₃² is Z₃²·x_at − X₃. at is an image of the
// distortion map, so its y lies in F_p.
func (pr *Params) doubleStep(t ec.JacPoint, at ec.Point2) (ec.JacPoint, ff.Elt2) {
	if t.IsInf() || t.Y.IsZero() {
		a := pr.C.FromJac(t)
		return pr.affineStep(a, a, at)
	}
	f := pr.F
	a := f.Square(t.X)
	b := f.Square(t.Y)
	c := f.Square(b)
	d := f.Sub(f.Sub(f.Square(f.Add(t.X, b)), a), c)
	d = f.Add(d, d)
	e := f.Add(f.Add(a, a), a) // 3X²
	x3 := f.Sub(f.Square(e), f.Add(d, d))
	c8 := f.Add(c, c)
	c8 = f.Add(c8, c8)
	c8 = f.Add(c8, c8)
	y3 := f.Sub(f.Mul(e, f.Sub(d, x3)), c8)
	z3 := f.Mul(f.Add(t.Y, t.Y), t.Z)

	zz := f.Square(t.Z)
	c0 := f.Add(f.Sub(f.Mul(f.Mul(z3, zz), at.Y.A), f.Add(b, b)), f.Mul(e, t.X))
	c1 := f.Neg(f.Mul(e, zz))
	return ec.JacPoint{X: x3, Y: y3, Z: z3}, pr.stepValue(c0, c1, x3, z3, at)
}

// addStep returns T+P and l_{T,P}·conj(v_{T+P}) at `at` for an affine
// P, both scaled into F_p* multiples. With H = x_P·Z² − X and
// R = y_P·Z³ − Y, the chord's slope is R/(Z·H); times Z₃ = Z·H the
// chord is Z₃·(y_at − y_P) − R·(x_at − x_P).
func (pr *Params) addStep(t ec.JacPoint, p ec.Point, at ec.Point2) (ec.JacPoint, ff.Elt2) {
	if t.IsInf() {
		return pr.affineStep(pr.C.Infinity(), p, at)
	}
	f := pr.F
	zz := f.Square(t.Z)
	h := f.Sub(f.Mul(p.X, zz), t.X)
	if h.IsZero() {
		return pr.affineStep(pr.C.FromJac(t), p, at) // T = ±P
	}
	r := f.Sub(f.Mul(p.Y, f.Mul(t.Z, zz)), t.Y)
	hh := f.Square(h)
	hhh := f.Mul(h, hh)
	v := f.Mul(t.X, hh)
	x3 := f.Sub(f.Sub(f.Square(r), hhh), f.Add(v, v))
	y3 := f.Sub(f.Mul(r, f.Sub(v, x3)), f.Mul(t.Y, hhh))
	z3 := f.Mul(t.Z, h)

	c0 := f.Add(f.Mul(z3, f.Sub(at.Y.A, p.Y)), f.Mul(r, p.X))
	c1 := f.Neg(r)
	return ec.JacPoint{X: x3, Y: y3, Z: z3}, pr.stepValue(c0, c1, x3, z3, at)
}

// stepValue returns l·conj(v) for the line l = c0 + c1·x_at and the
// vertical v = z3²·x_at − x3.
func (pr *Params) stepValue(c0, c1, x3, z3 ff.Elt, at ec.Point2) ff.Elt2 {
	f := pr.F
	l := ff.Elt2{A: f.Add(c0, f.Mul(c1, at.X.A)), B: f.Mul(c1, at.X.B)}
	zz3 := f.Square(z3)
	vc := ff.Elt2{A: f.Sub(f.Mul(zz3, at.X.A), x3), B: f.Neg(f.Mul(zz3, at.X.B))}
	return pr.X.Mul(l, vc)
}

// affineStep runs one degenerate step a+b through the exact affine
// millerStep, in millerRange's form.
func (pr *Params) affineStep(a, b ec.Point, at ec.Point2) (ec.JacPoint, ff.Elt2) {
	l, v, next := pr.millerStep(a, b, at)
	return pr.C.ToJac(next), pr.X.Mul(l, pr.X.Conj(v))
}

// finalExp raises a Miller value to (p²−1)/r = (p−1)·Cofactor, split
// by the Frobenius map. First f^(p−1) = conj(f)/f = conj(f)²/N(f),
// which costs one F_p inversion and has norm 1. On norm-1 elements
// the inverse is the conjugate, so the remaining power, the 351-bit
// (p+1)/r at the default preset, runs over its signed digits. A zero
// Miller value (a line vanished at the evaluation point) stays zero,
// which no pairing check accepts.
func (pr *Params) finalExp(f ff.Elt2) ff.Elt2 {
	if f.IsZero() {
		return f
	}
	x := pr.X
	u := x.MulBase(x.Square(x.Conj(f)), pr.F.Inv(x.Norm(f)))
	uc := x.Conj(u)
	out := u
	for d := len(pr.cofNAF) - 2; d >= 0; d-- {
		out = x.Square(out)
		switch pr.cofNAF[d] {
		case 1:
			out = x.Mul(out, u)
		case -1:
			out = x.Mul(out, uc)
		}
	}
	return out
}

// millerStep returns the line through a and b (tangent when a == b)
// evaluated at `at`, the vertical through a+b evaluated at `at`, and
// a+b itself, in affine coordinates with one slope inversion.
// Degenerate cases (vertical chord, point at infinity) follow the
// standard divisor conventions: an absent factor contributes 1. The
// Jacobian steps of millerRange fall back to it where their formulas do
// not apply.
func (pr *Params) millerStep(a, b ec.Point, at ec.Point2) (ff.Elt2, ff.Elt2, ec.Point) {
	f := pr.F
	x := pr.X
	one := x.One()
	switch {
	case a.Inf && b.Inf:
		return one, one, ec.Point{Inf: true}
	case a.Inf:
		// Line through ∞ and b is the vertical at b; a+b = b.
		vb := pr.verticalAt(b.X, at)
		return vb, vb, b
	case b.Inf:
		va := pr.verticalAt(a.X, at)
		return va, va, a
	}

	var lambda ff.Elt
	if a.X.Equal(b.X) {
		if !a.Y.Equal(b.Y) || a.Y.IsZero() {
			// Vertical chord: a + b = ∞, so the "vertical at a+b"
			// contributes 1.
			return pr.verticalAt(a.X, at), one, ec.Point{Inf: true}
		}
		// Tangent: λ = 3x²/2y (curve coefficient a = 0).
		lambda = f.Mul(f.Mul(f.FromInt64(3), f.Square(a.X)), f.Inv(f.Add(a.Y, a.Y)))
	} else {
		lambda = f.Mul(f.Sub(b.Y, a.Y), f.Inv(f.Sub(b.X, a.X)))
	}

	// l(at) = y_at − y_a − λ(x_at − x_a)
	dy := x.Sub(at.Y, x.FromBase(a.Y))
	dx := x.Sub(at.X, x.FromBase(a.X))
	l := x.Sub(dy, x.MulBase(dx, lambda))

	// The chord-and-tangent sum, reusing the slope already computed.
	sumX := f.Sub(f.Sub(f.Square(lambda), a.X), b.X)
	sumY := f.Sub(f.Mul(lambda, f.Sub(a.X, sumX)), a.Y)
	return l, pr.verticalAt(sumX, at), ec.Point{X: sumX, Y: sumY}
}

// verticalAt evaluates the vertical line x − x0 at `at`.
func (pr *Params) verticalAt(x0 ff.Elt, at ec.Point2) ff.Elt2 {
	return pr.X.Sub(at.X, pr.X.FromBase(x0))
}
