package pairing

import (
	"github.com/vchain-go/vchain/internal/crypto/ec"
	"github.com/vchain-go/vchain/internal/crypto/ff"
	"github.com/vchain-go/vchain/internal/par"
)

// lanes reports whether pr's Miller loops run on the field's 8-lane
// kernel.
func (pr *Params) lanes() bool { return pr.F.HasVec() && !pr.scalarMiller }

// millerLanes is millerTerms on the field's 8-lane kernel. Every term's
// args are packed into chunks of at most eight, one pair per lane, and
// the chunks run on up to n goroutines (par.For). In a chunk the pairs
// advance in lockstep through the digits of r, each lane keeping its
// own point T and its own Miller value f_j and running doubleStep's and
// addStep's formulas unchanged, so an 8-lane product costs a chunk what
// one Field.Mul costs a single pair (BenchmarkVecMul against
// BenchmarkFieldMul).
//
// The values are millerTerms' element for element. A lane's f_j is
// its pair's own factor of the shared accumulator, because F_p²
// multiplication commutes and a squared product is the product of the
// squares; an arg's conjugation applies to f_j as a whole, since
// conjugation is a field automorphism. Each term then multiplies out
// its args' values and takes its exponent.
func (pr *Params) millerLanes(terms []millerTerm, n int) ff.Elt2 {
	var args []millerArg
	for _, t := range terms {
		args = append(args, t.args...)
	}
	vals := make([]ff.Elt2, len(args))
	chunks := (len(args) + ff.VecLanes - 1) / ff.VecLanes
	par.For(chunks, n, func(c int) {
		lo, hi := c*len(args)/chunks, (c+1)*len(args)/chunks
		pr.millerChunk(args[lo:hi], vals[lo:hi])
	})
	x := pr.X
	f := x.One()
	for _, t := range terms {
		v := x.One()
		for _, val := range vals[:len(t.args)] {
			v = x.Mul(v, val)
		}
		vals = vals[len(t.args):]
		if t.exp != nil {
			v = x.Exp(v, t.exp)
		}
		f = x.Mul(f, v)
	}
	return f
}

// laneLoop is the state of one chunk of millerLanes, arg j in lane j,
// every value in the kernel's form.
type laneLoop struct {
	f   *ff.Field
	ext *ff.VecExt
	// x, y, z is each lane's T in Jacobian coordinates; px, py its
	// looped point P, and npy the y of −P.
	x, y, z, px, py, npy ff.Vec
	// axA, nbx and ay are the evaluation point φ(Q): x_at = axA − nbx·i
	// and y_at = ay (φ's y lies in F_p).
	axA, nbx, ay ff.Vec
	// sub is conj(x_at − x_P), the constant a digit −1 multiplies in.
	sub ff.Vec2
	// fv is each lane's Miller value; l and v are a step's line and
	// vertical.
	fv, l, v ff.Vec2
	t        [8]ff.Vec // scratch of double and add
	zz3      ff.Vec    // scratch of step
}

// millerChunk sets out[j] to args[j]'s Miller value, conjugated where
// the arg asks, for up to eight args: every digit of r but the last in
// the lanes, the last, whose addition meets T = −P for P in G, on
// millerFrom. A step that doubleStep or addStep takes through
// affineStep (T = ∞, T of order 2, T = ±P) leaves Z = 0 in the lane
// formulas, and a Z of 0 stays 0, so a lane whose final Z is 0 took
// one, and its pair is recomputed whole by millerRange. A lone arg runs
// on millerRange too: one lane loop costs about 1.25 scalar loops
// (BenchmarkMillerLoop), so the lanes pay from two pairs on.
func (pr *Params) millerChunk(args []millerArg, out []ff.Elt2) {
	if len(args) == 1 {
		out[0] = pr.millerRange(args)
		return
	}
	f := pr.F
	s := &laneLoop{f: f, ext: f.NewVecExt()}
	for j, a := range args {
		s.px.Set(j, a.p.X)
		s.py.Set(j, a.p.Y)
		s.z.Set(j, f.One())
		s.axA.Set(j, a.at.X.A)
		s.nbx.Set(j, f.Neg(a.at.X.B))
		s.ay.Set(j, a.at.Y.A)
	}
	for _, v := range []*ff.Vec{&s.px, &s.py, &s.z, &s.axA, &s.nbx, &s.ay} {
		f.VecEnter(v, v)
	}
	s.x, s.y, s.fv.A = s.px, s.py, s.z
	f.VecSub(&s.npy, &s.fv.B, &s.py) // fv.B is 0
	f.VecSub(&s.sub.A, &s.axA, &s.px)
	s.sub.B = s.nbx

	top := len(pr.rNAF) - 2
	for d := top; d >= 1; d-- {
		s.ext.Square(&s.fv, &s.fv)
		s.double()
		switch pr.rNAF[d] {
		case 1:
			s.add(&s.py, nil)
		case -1:
			s.add(&s.npy, &s.sub)
		}
	}

	for _, v := range []*ff.Vec{&s.x, &s.y, &s.z, &s.fv.A, &s.fv.B} {
		f.VecLeave(v, v)
	}
	for j, a := range args {
		t := ec.JacPoint{X: s.x.Get(j), Y: s.y.Get(j), Z: s.z.Get(j)}
		if t.IsInf() {
			out[j] = pr.millerRange(args[j : j+1])
			continue
		}
		v := pr.X.New(s.fv.A.Get(j), s.fv.B.Get(j))
		if a.inv {
			v = pr.X.Conj(v)
		}
		out[j] = pr.millerFrom(args[j:j+1], []ec.JacPoint{t}, v, min(top, 0))
	}
}

// double is doubleStep in every lane: T = 2T, and fv times the tangent
// at T and the vertical through 2T, each scaled as doubleStep scales
// them.
func (s *laneLoop) double() {
	f := s.f
	a, b, c, d, e, ex, zz, u := &s.t[0], &s.t[1], &s.t[2], &s.t[3], &s.t[4], &s.t[5], &s.t[6], &s.t[7]
	f.VecMul(a, &s.x, &s.x)
	f.VecMul(b, &s.y, &s.y)
	f.VecMul(c, b, b)
	f.VecAdd(d, &s.x, b)
	f.VecMul(d, d, d)
	f.VecSub(d, d, a)
	f.VecSub(d, d, c)
	f.VecAdd(d, d, d)
	f.VecAdd(e, a, a)
	f.VecAdd(e, e, a) // 3X²
	f.VecMul(ex, e, &s.x)
	f.VecMul(zz, &s.z, &s.z)
	f.VecAdd(u, &s.y, &s.y)
	f.VecMul(&s.z, u, &s.z) // Z₃ = 2Y·Z
	f.VecMul(&s.x, e, e)
	f.VecAdd(u, d, d)
	f.VecSub(&s.x, &s.x, u) // X₃ = E² − 2D
	f.VecSub(u, d, &s.x)
	f.VecMul(u, e, u)
	f.VecAdd(c, c, c)
	f.VecAdd(c, c, c)
	f.VecAdd(c, c, c)
	f.VecSub(&s.y, u, c) // Y₃ = E·(D − X₃) − 8C

	// The tangent is c0 − E·Z²·x_at with c0 = Z₃·Z²·y_at − 2B + E·X.
	f.VecMul(u, &s.z, zz)
	f.VecMul(u, u, &s.ay)
	f.VecSub(u, u, b)
	f.VecSub(u, u, b)
	f.VecAdd(u, u, ex)
	f.VecMul(e, e, zz)
	s.step(u, e, nil)
}

// add is addStep in every lane, adding the affine (px, py): T = T + P,
// and fv times the chord and the vertical through T + P, each scaled as
// addStep scales them, and times sub unless it is nil.
func (s *laneLoop) add(py *ff.Vec, sub *ff.Vec2) {
	f := s.f
	zz, h, r, hh, hhh, v, u, w := &s.t[0], &s.t[1], &s.t[2], &s.t[3], &s.t[4], &s.t[5], &s.t[6], &s.t[7]
	f.VecMul(zz, &s.z, &s.z)
	f.VecMul(h, &s.px, zz)
	f.VecSub(h, h, &s.x) // H = x_P·Z² − X
	f.VecMul(r, &s.z, zz)
	f.VecMul(r, py, r)
	f.VecSub(r, r, &s.y) // R = y_P·Z³ − Y
	f.VecMul(hh, h, h)
	f.VecMul(hhh, h, hh)
	f.VecMul(v, &s.x, hh)
	f.VecMul(w, &s.y, hhh)
	f.VecMul(&s.x, r, r)
	f.VecSub(&s.x, &s.x, hhh)
	f.VecSub(&s.x, &s.x, v)
	f.VecSub(&s.x, &s.x, v) // X₃ = R² − H³ − 2V
	f.VecSub(u, v, &s.x)
	f.VecMul(u, r, u)
	f.VecSub(&s.y, u, w)    // Y₃ = R·(V − X₃) − Y·H³
	f.VecMul(&s.z, &s.z, h) // Z₃ = Z·H

	// The chord is c0 − R·x_at with c0 = Z₃·(y_at − y_P) + R·x_P.
	f.VecSub(u, &s.ay, py)
	f.VecMul(u, &s.z, u)
	f.VecMul(w, r, &s.px)
	f.VecAdd(u, u, w)
	s.step(u, r, sub)
}

// step is stepValue in every lane, for the line c0 − m·x_at and the
// vertical Z₃²·x_at − X₃ through the new T: it multiplies fv by
// l·conj(v), and by sub unless it is nil.
func (s *laneLoop) step(c0, m *ff.Vec, sub *ff.Vec2) {
	f := s.f
	l, v := &s.l, &s.v
	f.VecMul(&l.A, m, &s.axA)
	f.VecSub(&l.A, c0, &l.A)
	f.VecMul(&l.B, m, &s.nbx)
	f.VecMul(&s.zz3, &s.z, &s.z)
	f.VecMul(&v.A, &s.zz3, &s.axA)
	f.VecSub(&v.A, &v.A, &s.x)
	f.VecMul(&v.B, &s.zz3, &s.nbx)
	s.ext.Mul(l, l, v)
	if sub != nil {
		s.ext.Mul(l, l, sub)
	}
	s.ext.Mul(&s.fv, &s.fv, l)
}
