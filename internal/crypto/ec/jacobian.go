package ec

import "github.com/vchain-go/vchain/internal/crypto/ff"

// JacPoint is a point of E(F_p) in Jacobian projective coordinates:
// (X, Y, Z) represents the affine point (X/Z², Y/Z³), and Z = 0 is the
// point at infinity. The zero value is infinity, so slices of JacPoint
// (Pippenger buckets, window tables) start out correctly initialized.
//
// Affine chord-and-tangent pays one modular inversion — about 60 field
// multiplications at the default preset and 40 at toy — per group
// operation, while the formulas below use none. A chain of dependent
// operations (scalar multiplication, the small MSM buckets, fixed-base
// tables) therefore accumulates in Jacobian form and converts back to
// affine once (FromJac), or once per batch (NormalizeJac). Independent
// additions need neither: SumEach adds them affinely, a round at a
// time, with one inversion shared by the whole round, and is how the
// accumulators' digests are summed.
type JacPoint struct {
	X, Y, Z ff.Elt
}

// IsInf reports whether the point is the group identity.
func (p JacPoint) IsInf() bool { return p.Z.IsZero() }

// ToJac lifts an affine point to Jacobian coordinates (Z = 1).
func (c *Curve) ToJac(p Point) JacPoint {
	if p.Inf {
		return JacPoint{}
	}
	return JacPoint{X: p.X, Y: p.Y, Z: c.F.One()}
}

// FromJac converts back to affine with a single inversion.
func (c *Curve) FromJac(p JacPoint) Point {
	if p.IsInf() {
		return c.Infinity()
	}
	f := c.F
	zi := f.Inv(p.Z)
	zi2 := f.Square(zi)
	return Point{X: f.Mul(p.X, zi2), Y: f.Mul(p.Y, f.Mul(zi2, zi))}
}

// JacNeg returns -p.
func (c *Curve) JacNeg(p JacPoint) JacPoint {
	if p.IsInf() {
		return p
	}
	return JacPoint{X: p.X, Y: c.F.Neg(p.Y), Z: p.Z}
}

// JacDouble returns 2p by the dbl-2009-l formulas (curve coefficient
// a = 0): 1 squaring-heavy schedule, zero inversions.
func (c *Curve) JacDouble(p JacPoint) JacPoint {
	if p.IsInf() || p.Y.IsZero() {
		return JacPoint{} // 2-torsion doubles to infinity
	}
	f := c.F
	a := f.Square(p.X)
	b := f.Square(p.Y)
	cc := f.Square(b)
	// D = 2·((X+B)² − A − C)
	d := f.Sub(f.Sub(f.Square(f.Add(p.X, b)), a), cc)
	d = f.Add(d, d)
	e := f.Add(f.Add(a, a), a) // 3A
	x3 := f.Sub(f.Square(e), f.Add(d, d))
	c8 := f.Add(cc, cc)
	c8 = f.Add(c8, c8)
	c8 = f.Add(c8, c8)
	y3 := f.Sub(f.Mul(e, f.Sub(d, x3)), c8)
	z3 := f.Mul(f.Add(p.Y, p.Y), p.Z)
	return JacPoint{X: x3, Y: y3, Z: z3}
}

// JacAdd returns p+q by the add-2007-bl formulas, falling back to
// doubling when p = q and to infinity when p = -q.
func (c *Curve) JacAdd(p, q JacPoint) JacPoint {
	if p.IsInf() {
		return q
	}
	if q.IsInf() {
		return p
	}
	f := c.F
	z1z1 := f.Square(p.Z)
	z2z2 := f.Square(q.Z)
	u1 := f.Mul(p.X, z2z2)
	u2 := f.Mul(q.X, z1z1)
	s1 := f.Mul(p.Y, f.Mul(q.Z, z2z2))
	s2 := f.Mul(q.Y, f.Mul(p.Z, z1z1))
	h := f.Sub(u2, u1)
	r := f.Sub(s2, s1)
	if h.IsZero() {
		if r.IsZero() {
			return c.JacDouble(p)
		}
		return JacPoint{}
	}
	hh := f.Square(h)
	hhh := f.Mul(h, hh)
	v := f.Mul(u1, hh)
	x3 := f.Sub(f.Sub(f.Square(r), hhh), f.Add(v, v))
	y3 := f.Sub(f.Mul(r, f.Sub(v, x3)), f.Mul(s1, hhh))
	z3 := f.Mul(f.Mul(p.Z, q.Z), h)
	return JacPoint{X: x3, Y: y3, Z: z3}
}

// JacAddMixed returns p+q for an affine q (Z = 1), saving four
// multiplications and a squaring over the general addition — the inner
// operation of both the MSM bucket fill and the fixed-base tables.
func (c *Curve) JacAddMixed(p JacPoint, q Point) JacPoint {
	if q.Inf {
		return p
	}
	if p.IsInf() {
		return c.ToJac(q)
	}
	f := c.F
	z1z1 := f.Square(p.Z)
	u2 := f.Mul(q.X, z1z1)
	s2 := f.Mul(q.Y, f.Mul(p.Z, z1z1))
	h := f.Sub(u2, p.X)
	r := f.Sub(s2, p.Y)
	if h.IsZero() {
		if r.IsZero() {
			return c.JacDouble(p)
		}
		return JacPoint{}
	}
	hh := f.Square(h)
	hhh := f.Mul(h, hh)
	v := f.Mul(p.X, hh)
	x3 := f.Sub(f.Sub(f.Square(r), hhh), f.Add(v, v))
	y3 := f.Sub(f.Mul(r, f.Sub(v, x3)), f.Mul(p.Y, hhh))
	z3 := f.Mul(p.Z, h)
	return JacPoint{X: x3, Y: y3, Z: z3}
}

// NormalizeJac converts a batch of Jacobian points to affine with a
// single field inversion shared by the whole batch (batchInvert).
// Infinity entries pass through untouched.
func (c *Curve) NormalizeJac(ps []JacPoint) []Point {
	out := make([]Point, len(ps))
	c.normalizeInto(out, ps, make([]ff.Elt, 2*len(ps)))
	return out
}

// normalizeInto is NormalizeJac writing into out, with zs (at least
// twice as long as ps) for the Z's and batchInvert's scratch.
func (c *Curve) normalizeInto(out []Point, ps []JacPoint, zs []ff.Elt) {
	f := c.F
	zs = zs[:0]
	for _, p := range ps {
		if !p.IsInf() {
			zs = append(zs, p.Z)
		}
	}
	batchInvert(f, zs, zs[len(zs):2*len(zs)])
	j := 0
	for i, p := range ps {
		if p.IsInf() {
			out[i] = c.Infinity()
			continue
		}
		zi := zs[j] // 1/Z_i
		j++
		zi2 := f.Square(zi)
		out[i] = Point{X: f.Mul(p.X, zi2), Y: f.Mul(p.Y, f.Mul(zi2, zi))}
	}
}

// batchInvert replaces every element of xs by its inverse with one
// field inversion (Montgomery's trick): multiply the elements into a
// running product, keeping the product before each in scratch, invert
// the total once, then peel the individual inverses off backwards at
// three multiplications each. Every element must be non-zero, and
// scratch at least as long as xs.
func batchInvert(f *ff.Field, xs, scratch []ff.Elt) {
	if len(xs) == 0 {
		return
	}
	acc := f.One()
	for i, x := range xs {
		scratch[i] = acc
		acc = f.Mul(acc, x)
	}
	inv := f.Inv(acc)
	for i := len(xs) - 1; i >= 0; i-- {
		x := xs[i]
		xs[i] = f.Mul(inv, scratch[i])
		inv = f.Mul(inv, x) // strip x from the running inverse
	}
}
