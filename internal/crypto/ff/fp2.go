package ff

import "math/big"

// Ext is the quadratic extension F_p² = F_p[i]/(i²+1). It is a field
// because the base modulus is ≡ 3 (mod 4), making -1 a non-residue.
type Ext struct {
	// Base is the underlying prime field.
	Base *Field
}

// NewExt builds F_p² over the given base field.
func NewExt(base *Field) *Ext { return &Ext{Base: base} }

// Elt2 is an element a + b·i of F_p².
type Elt2 struct {
	A Elt // real part
	B Elt // imaginary part
}

// New constructs a+b·i.
func (x *Ext) New(a, b Elt) Elt2 { return Elt2{A: a, B: b} }

// FromBase embeds an F_p element into F_p².
func (x *Ext) FromBase(a Elt) Elt2 { return Elt2{A: a, B: x.Base.Zero()} }

// Zero returns the additive identity.
func (x *Ext) Zero() Elt2 { return Elt2{A: x.Base.Zero(), B: x.Base.Zero()} }

// One returns the multiplicative identity.
func (x *Ext) One() Elt2 { return Elt2{A: x.Base.One(), B: x.Base.Zero()} }

// I returns the square root of -1.
func (x *Ext) I() Elt2 { return Elt2{A: x.Base.Zero(), B: x.Base.One()} }

// IsZero reports whether e is zero.
func (e Elt2) IsZero() bool { return e.A.IsZero() && e.B.IsZero() }

// Equal reports element equality.
func (e Elt2) Equal(o Elt2) bool { return e.A.Equal(o.A) && e.B.Equal(o.B) }

// Add returns a+b.
func (x *Ext) Add(a, b Elt2) Elt2 {
	return Elt2{A: x.Base.Add(a.A, b.A), B: x.Base.Add(a.B, b.B)}
}

// Sub returns a-b.
func (x *Ext) Sub(a, b Elt2) Elt2 {
	return Elt2{A: x.Base.Sub(a.A, b.A), B: x.Base.Sub(a.B, b.B)}
}

// Neg returns -a.
func (x *Ext) Neg(a Elt2) Elt2 {
	return Elt2{A: x.Base.Neg(a.A), B: x.Base.Neg(a.B)}
}

// Mul returns a·b using the Karatsuba-style 3-multiplication schedule.
func (x *Ext) Mul(a, b Elt2) Elt2 {
	f := x.Base
	t0 := f.Mul(a.A, b.A)
	t1 := f.Mul(a.B, b.B)
	// (a.A+a.B)(b.A+b.B) = t0 + t1 + cross
	t2 := f.Mul(f.Add(a.A, a.B), f.Add(b.A, b.B))
	re := f.Sub(t0, t1)
	im := f.Sub(f.Sub(t2, t0), t1)
	return Elt2{A: re, B: im}
}

// MulBase multiplies a by a base-field scalar.
func (x *Ext) MulBase(a Elt2, s Elt) Elt2 {
	return Elt2{A: x.Base.Mul(a.A, s), B: x.Base.Mul(a.B, s)}
}

// Square returns a².
func (x *Ext) Square(a Elt2) Elt2 {
	f := x.Base
	// (a+bi)² = (a+b)(a-b) + 2ab·i
	re := f.Mul(f.Add(a.A, a.B), f.Sub(a.A, a.B))
	im := f.Mul(a.A, a.B)
	im = f.Add(im, im)
	return Elt2{A: re, B: im}
}

// Conj returns the conjugate a - b·i, which equals the Frobenius map
// e ↦ e^p in this extension.
func (x *Ext) Conj(a Elt2) Elt2 {
	return Elt2{A: a.A, B: x.Base.Neg(a.B)}
}

// Norm returns a² + b² ∈ F_p, the field norm of a + b·i.
func (x *Ext) Norm(a Elt2) Elt {
	f := x.Base
	return f.Add(f.Square(a.A), f.Square(a.B))
}

// Inv returns a⁻¹. It panics on zero.
func (x *Ext) Inv(a Elt2) Elt2 {
	if a.IsZero() {
		panic("ff: inverse of zero in F_p²")
	}
	f := x.Base
	n := f.Inv(x.Norm(a))
	return Elt2{A: f.Mul(a.A, n), B: f.Neg(f.Mul(a.B, n))}
}

// Exp returns a^k by square-and-multiply. Negative exponents invert first.
func (x *Ext) Exp(a Elt2, k *big.Int) Elt2 {
	if k.Sign() < 0 {
		return x.Exp(x.Inv(a), new(big.Int).Neg(k))
	}
	r := x.One()
	base := a
	for i := k.BitLen() - 1; i >= 0; i-- {
		r = x.Square(r)
		if k.Bit(i) == 1 {
			r = x.Mul(r, base)
		}
	}
	return r
}

// CubeRootOfUnity returns a primitive cube root of unity ζ ∈ F_p².
// Because p ≡ 2 (mod 3), no such root exists in F_p; over F_p² it is
// ζ = (-1 + √3·i)/2, since (√3·i)² = -3. It panics if p ≢ 2 (mod 3).
func (x *Ext) CubeRootOfUnity() Elt2 {
	f := x.Base
	if new(big.Int).Mod(f.P, big.NewInt(3)).Int64() != 2 {
		panic("ff: cube root of unity in F_p² requires p ≡ 2 (mod 3)")
	}
	sqrt3, ok := f.Sqrt(f.FromInt64(3))
	if !ok {
		// p ≡ 3 (mod 4) makes -1 a non-residue, and p ≡ 2 (mod 3) makes
		// -3 a non-residue, so 3 = (-1)(-3) is always a residue.
		panic("ff: 3 unexpectedly a non-residue")
	}
	inv2 := f.Inv(f.FromInt64(2))
	re := f.Neg(inv2)          // -1/2
	im := f.Mul(sqrt3, inv2)   // √3/2
	zeta := Elt2{A: re, B: im} // (-1+√3·i)/2
	one := x.One()
	if !x.Mul(x.Square(zeta), zeta).Equal(one) || zeta.Equal(one) {
		panic("ff: cube root of unity construction failed")
	}
	return zeta
}
