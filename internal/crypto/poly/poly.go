// Package poly implements dense univariate polynomial arithmetic over
// the prime field Z_r. It provides exactly what the vChain accumulator
// of Construction 1 (q-SDH) needs:
//
//   - building characteristic polynomials P(X) = ∏ (x + x_i) from
//     multiset elements (product tree),
//   - multiplication (schoolbook with a Karatsuba split for large
//     operands),
//   - Euclidean division,
//   - the extended Euclidean algorithm, which yields the Bézout
//     cofactors Q1, Q2 with P1·Q1 + P2·Q2 = gcd(P1, P2) that form the
//     disjointness witness.
//
// Coefficients are *big.Int reduced mod r; index i holds the
// coefficient of X^i. The canonical form strips trailing zeros; the
// zero polynomial is the empty slice with degree -1.
package poly

import (
	"fmt"
	"math/big"
)

// Ring is the coefficient ring Z_r (r prime).
type Ring struct {
	// R is the prime modulus.
	R *big.Int
}

// NewRing creates the polynomial coefficient ring Z_r.
func NewRing(r *big.Int) *Ring {
	if r.Sign() <= 0 {
		panic("poly: modulus must be positive")
	}
	return &Ring{R: new(big.Int).Set(r)}
}

// Poly is a polynomial; p[i] is the coefficient of X^i. All
// coefficients are canonical in [0, r).
type Poly []*big.Int

// Zero returns the zero polynomial.
func (rg *Ring) Zero() Poly { return Poly{} }

// One returns the constant polynomial 1.
func (rg *Ring) One() Poly { return Poly{big.NewInt(1)} }

// FromCoeffs builds a polynomial from low-to-high coefficients,
// reducing each mod r and trimming.
func (rg *Ring) FromCoeffs(cs []*big.Int) Poly {
	p := make(Poly, len(cs))
	for i, c := range cs {
		p[i] = new(big.Int).Mod(c, rg.R)
	}
	return rg.trim(p)
}

// Degree returns the degree, with -1 for the zero polynomial.
func (p Poly) Degree() int { return len(p) - 1 }

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p) == 0 }

// Coeff returns the coefficient of X^i (zero beyond the degree).
func (p Poly) Coeff(i int) *big.Int {
	if i < 0 || i >= len(p) {
		return new(big.Int)
	}
	return new(big.Int).Set(p[i])
}

// Equal reports polynomial equality.
func (rg *Ring) Equal(a, b Poly) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Cmp(b[i]) != 0 {
			return false
		}
	}
	return true
}

func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	s := ""
	for i := len(p) - 1; i >= 0; i-- {
		if p[i].Sign() == 0 {
			continue
		}
		if s != "" {
			s += " + "
		}
		switch i {
		case 0:
			s += p[i].String()
		case 1:
			s += fmt.Sprintf("%v·X", p[i])
		default:
			s += fmt.Sprintf("%v·X^%d", p[i], i)
		}
	}
	return s
}

func (rg *Ring) trim(p Poly) Poly {
	for len(p) > 0 && p[len(p)-1].Sign() == 0 {
		p = p[:len(p)-1]
	}
	return p
}

// Add returns a+b.
func (rg *Ring) Add(a, b Poly) Poly {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make(Poly, n)
	for i := 0; i < n; i++ {
		c := new(big.Int)
		if i < len(a) {
			c.Add(c, a[i])
		}
		if i < len(b) {
			c.Add(c, b[i])
		}
		out[i] = c.Mod(c, rg.R)
	}
	return rg.trim(out)
}

// Sub returns a-b.
func (rg *Ring) Sub(a, b Poly) Poly {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make(Poly, n)
	for i := 0; i < n; i++ {
		c := new(big.Int)
		if i < len(a) {
			c.Add(c, a[i])
		}
		if i < len(b) {
			c.Sub(c, b[i])
		}
		out[i] = c.Mod(c, rg.R)
	}
	return rg.trim(out)
}

// ScalarMul returns c·a.
func (rg *Ring) ScalarMul(a Poly, c *big.Int) Poly {
	cc := new(big.Int).Mod(c, rg.R)
	if cc.Sign() == 0 || a.IsZero() {
		return Poly{}
	}
	out := make(Poly, len(a))
	for i := range a {
		v := new(big.Int).Mul(a[i], cc)
		out[i] = v.Mod(v, rg.R)
	}
	return rg.trim(out)
}

// karatsubaThreshold is the operand size above which Mul splits
// recursively. Chosen empirically; schoolbook wins on small inputs.
const karatsubaThreshold = 64

// Mul returns a·b.
func (rg *Ring) Mul(a, b Poly) Poly {
	if a.IsZero() || b.IsZero() {
		return Poly{}
	}
	if len(a) < karatsubaThreshold || len(b) < karatsubaThreshold {
		return rg.mulSchoolbook(a, b)
	}
	return rg.mulKaratsuba(a, b)
}

func (rg *Ring) mulSchoolbook(a, b Poly) Poly {
	out := make([]*big.Int, len(a)+len(b)-1)
	for i := range out {
		out[i] = new(big.Int)
	}
	t := new(big.Int)
	for i := range a {
		if a[i].Sign() == 0 {
			continue
		}
		for j := range b {
			t.Mul(a[i], b[j])
			out[i+j].Add(out[i+j], t)
		}
	}
	for i := range out {
		out[i].Mod(out[i], rg.R)
	}
	return rg.trim(out)
}

func (rg *Ring) mulKaratsuba(a, b Poly) Poly {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	half := (n + 1) / 2
	a0, a1 := splitAt(a, half)
	b0, b1 := splitAt(b, half)

	z0 := rg.Mul(a0, b0)
	z2 := rg.Mul(a1, b1)
	z1 := rg.Mul(rg.Add(a0, a1), rg.Add(b0, b1))
	z1 = rg.Sub(rg.Sub(z1, z0), z2)

	out := make(Poly, len(a)+len(b)-1)
	for i := range out {
		out[i] = new(big.Int)
	}
	accumulate(out, z0, 0)
	accumulate(out, z1, half)
	accumulate(out, z2, 2*half)
	for i := range out {
		out[i].Mod(out[i], rg.R)
	}
	return rg.trim(out)
}

func splitAt(p Poly, k int) (lo, hi Poly) {
	if len(p) <= k {
		return p, Poly{}
	}
	return p[:k], p[k:]
}

func accumulate(dst Poly, src Poly, shift int) {
	for i := range src {
		dst[i+shift].Add(dst[i+shift], src[i])
	}
}

// FromRoots returns ∏ (X + x_i) — note the *plus*: these are the
// characteristic polynomials P(X) = ∏ (x_i + X) of the vChain paper's
// Construction 1, whose roots are the negated elements. A product tree
// keeps the construction sub-quadratic in practice.
func (rg *Ring) FromRoots(xs []*big.Int) Poly {
	if len(xs) == 0 {
		return rg.One()
	}
	leaves := make([]Poly, len(xs))
	for i, x := range xs {
		c := new(big.Int).Mod(x, rg.R)
		leaves[i] = rg.trim(Poly{c, big.NewInt(1)})
	}
	for len(leaves) > 1 {
		next := make([]Poly, 0, (len(leaves)+1)/2)
		for i := 0; i < len(leaves); i += 2 {
			if i+1 < len(leaves) {
				next = append(next, rg.Mul(leaves[i], leaves[i+1]))
			} else {
				next = append(next, leaves[i])
			}
		}
		leaves = next
	}
	return leaves[0]
}

// DivMod returns q, rem with a = q·b + rem and deg(rem) < deg(b).
// It panics if b is zero.
func (rg *Ring) DivMod(a, b Poly) (q, rem Poly) {
	if b.IsZero() {
		panic("poly: division by zero polynomial")
	}
	if a.Degree() < b.Degree() {
		return Poly{}, a
	}
	// Work on a mutable copy of a.
	r := make(Poly, len(a))
	for i := range a {
		r[i] = new(big.Int).Set(a[i])
	}
	invLead := new(big.Int).ModInverse(b[len(b)-1], rg.R)
	if invLead == nil {
		panic("poly: leading coefficient not invertible (modulus not prime?)")
	}
	qlen := len(a) - len(b) + 1
	qq := make(Poly, qlen)
	for i := range qq {
		qq[i] = new(big.Int)
	}
	t := new(big.Int)
	for i := len(r) - 1; i >= len(b)-1; i-- {
		if r[i].Sign() == 0 {
			continue
		}
		c := new(big.Int).Mul(r[i], invLead)
		c.Mod(c, rg.R)
		shift := i - (len(b) - 1)
		qq[shift].Set(c)
		for j := range b {
			t.Mul(c, b[j])
			r[shift+j].Sub(r[shift+j], t)
			r[shift+j].Mod(r[shift+j], rg.R)
		}
	}
	return rg.trim(qq), rg.trim(r)
}

// ExtGCD returns (g, u, v) with u·a + v·b = g = gcd(a, b), g monic.
// gcd(0, 0) is defined as 0 with zero cofactors.
func (rg *Ring) ExtGCD(a, b Poly) (g, u, v Poly) {
	// Iterative extended Euclid.
	r0, r1 := a, b
	s0, s1 := rg.One(), rg.Zero()
	t0, t1 := rg.Zero(), rg.One()
	for !r1.IsZero() {
		q, rem := rg.DivMod(r0, r1)
		r0, r1 = r1, rem
		s0, s1 = s1, rg.Sub(s0, rg.Mul(q, s1))
		t0, t1 = t1, rg.Sub(t0, rg.Mul(q, t1))
	}
	if r0.IsZero() {
		return rg.Zero(), rg.Zero(), rg.Zero()
	}
	// Normalize to monic gcd.
	lead := r0[len(r0)-1]
	inv := new(big.Int).ModInverse(lead, rg.R)
	return rg.ScalarMul(r0, inv), rg.ScalarMul(s0, inv), rg.ScalarMul(t0, inv)
}

// Eval evaluates p at x by Horner's rule.
func (rg *Ring) Eval(p Poly, x *big.Int) *big.Int {
	acc := new(big.Int)
	xx := new(big.Int).Mod(x, rg.R)
	for i := len(p) - 1; i >= 0; i-- {
		acc.Mul(acc, xx)
		acc.Add(acc, p[i])
		acc.Mod(acc, rg.R)
	}
	return acc
}
