// Package ff implements the finite fields F_p and F_p² used by the
// pairing-based cryptography in vChain.
//
// An element is a fixed array of 64-bit limbs holding a·R mod p, the
// Montgomery form of a, with R = 2^(64n) for the field's live limb
// count n (1 to 8, so p has at most 512 bits). Elements hold no pointer
// and arithmetic allocates nothing: additions are math/bits carry
// chains and multiplications a Montgomery product. At 8 limbs on an
// amd64 CPU with BMI2 and ADX the product is an assembly kernel
// (fp_amd64.s); every other field and CPU runs the same product in Go.
// At 8 limbs on an amd64 CPU with AVX-512 IFMA a third kernel (vec.go,
// vec_amd64.s) multiplies eight independent elements at once in radix
// 2⁵², for the affine rounds of ec's point sums (VecInvertEach,
// VecChord) and pairing's Miller loops, one pair per lane (VecMul,
// VecAdd, VecSub, VecExt).
// Inversion is on the limbs too: Bernstein and Yang's safegcd in its
// variable-time form (inv.go), with no allocation. math/big appears
// only at the edges: building elements from integers, the exponents of
// Exp/Sqrt, and parameter generation. The quadratic extension F_p² is
// realized as F_p[i]/(i²+1), which is a field whenever p ≡ 3 (mod 4).
package ff

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// maxLimbs bounds the live limb count of every field.
const maxLimbs = 8

// Field describes the prime field F_p.
type Field struct {
	// P is the prime modulus.
	P *big.Int
	// n is the live limb count; limbs at and above n are always zero.
	n int
	// p holds P in limbs.
	p [maxLimbs]uint64
	// pInv is −p⁻¹ mod 2⁶⁴, the Montgomery reduction constant.
	pInv uint64
	// adx selects the assembly product mulADX for Mul: 8 live limbs, a
	// top limb below 2⁶⁴−1 (mulADX's overflow bound), and a CPU with
	// BMI2 and ADX.
	adx bool
	// vec holds the 8-lane kernel's constants where NewField selects it
	// (8 live limbs, a CPU with AVX-512 IFMA); it is nil elsewhere.
	vec *vecConst
	// one, r2 and r3 are R, R² and R³ mod p: the Montgomery form of 1,
	// the factor that converts into Montgomery form, and the factor that
	// turns the inverse of a Montgomery representative into the
	// Montgomery form of the inverse.
	one, r2, r3 Elt
	// size is the byte length of P.
	size int
	// sqrtExp caches (P+1)/4 for square roots (valid since P ≡ 3 mod 4).
	sqrtExp *big.Int
}

// NewField creates the prime field F_p. It panics if p is not an odd
// prime congruent to 3 mod 4 of at most 512 bits; pairing parameters
// guarantee this, and a misconfigured modulus is a programming error
// rather than a runtime condition.
func NewField(p *big.Int) *Field {
	if p.Sign() <= 0 || p.Bit(0) == 0 {
		panic("ff: modulus must be an odd prime")
	}
	if new(big.Int).Mod(p, big.NewInt(4)).Int64() != 3 {
		panic("ff: modulus must be ≡ 3 (mod 4) so that i²+1 is irreducible")
	}
	if p.BitLen() > 64*maxLimbs {
		panic(fmt.Sprintf("ff: modulus wider than %d bits", 64*maxLimbs))
	}
	f := &Field{
		P:    new(big.Int).Set(p),
		n:    (p.BitLen() + 63) / 64,
		size: (p.BitLen() + 7) / 8,
	}
	f.p = limbsOf(p)
	f.adx = hasADX && f.n == maxLimbs && f.p[maxLimbs-1] < math.MaxUint64
	// Newton's iteration doubles the correct low bits of p⁻¹ mod 2⁶⁴
	// each round, starting from 3 (an odd p is its own inverse mod 8).
	inv := f.p[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - f.p[0]*inv
	}
	f.pInv = -inv
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*f.n))
	rk := new(big.Int).Mod(r, p)
	f.one = Elt{l: limbsOf(rk)}
	rk.Mul(rk, r).Mod(rk, p)
	f.r2 = Elt{l: limbsOf(rk)}
	rk.Mul(rk, r).Mod(rk, p)
	f.r3 = Elt{l: limbsOf(rk)}
	f.sqrtExp = new(big.Int).Add(p, big.NewInt(1))
	f.sqrtExp.Rsh(f.sqrtExp, 2)
	if hasIFMA && f.n == maxLimbs {
		f.vec = newVecConst(f)
	}
	return f
}

// Elt is an element of F_p in Montgomery form. The zero value is 0.
// An Elt is meaningful only together with the field that made it.
type Elt struct {
	l [maxLimbs]uint64
}

// limbsOf splits a non-negative integer below 2^512 into limbs.
func limbsOf(v *big.Int) (l [maxLimbs]uint64) {
	var buf [8 * maxLimbs]byte
	v.FillBytes(buf[:])
	for i := range l {
		l[i] = binary.BigEndian.Uint64(buf[len(buf)-8*(i+1):])
	}
	return l
}

// NewElt reduces v into the field.
func (f *Field) NewElt(v *big.Int) Elt {
	r := new(big.Int).Mod(v, f.P)
	return f.Mul(Elt{l: limbsOf(r)}, f.r2)
}

// Reduce interprets b as a big-endian integer and reduces it into the
// field: hash-to-field, where EltFromBytes would reject values ≥ p.
func (f *Field) Reduce(b []byte) Elt { return f.NewElt(new(big.Int).SetBytes(b)) }

// FromInt64 builds a field element from a small integer. |v| is not
// reduced first: the Montgomery product returns a reduced result for
// any operands whose product is below R·p, and |v| < 2⁶⁴ ≤ R while
// R² mod p < p.
func (f *Field) FromInt64(v int64) Elt {
	u := uint64(v)
	if v < 0 {
		u = -u
	}
	e := f.Mul(Elt{l: [maxLimbs]uint64{u}}, f.r2)
	if v < 0 {
		return f.Neg(e)
	}
	return e
}

// Zero returns the additive identity.
func (f *Field) Zero() Elt { return Elt{} }

// One returns the multiplicative identity.
func (f *Field) One() Elt { return f.one }

// IsZero reports whether e is the additive identity.
func (e Elt) IsZero() bool { return e.l == [maxLimbs]uint64{} }

// Equal reports whether two elements are identical. Limb by limb, it
// stops at the first difference, which for unequal elements is almost
// always the first limb.
func (e Elt) Equal(o Elt) bool {
	for i := range e.l {
		if e.l[i] != o.l[i] {
			return false
		}
	}
	return true
}

// Add returns a+b.
func (f *Field) Add(a, b Elt) Elt {
	var r, s Elt
	var c, bw uint64
	for i := 0; i < f.n; i++ {
		r.l[i], c = bits.Add64(a.l[i], b.l[i], c)
	}
	for i := 0; i < f.n; i++ {
		s.l[i], bw = bits.Sub64(r.l[i], f.p[i], bw)
	}
	// The sum is c·R + r; it needs reducing when it reaches p, that is
	// when it overflowed the limbs or subtracting p did not borrow.
	if c != 0 || bw == 0 {
		return s
	}
	return r
}

// Sub returns a-b.
func (f *Field) Sub(a, b Elt) Elt {
	var r Elt
	var bw uint64
	for i := 0; i < f.n; i++ {
		r.l[i], bw = bits.Sub64(a.l[i], b.l[i], bw)
	}
	if bw != 0 {
		var c uint64
		for i := 0; i < f.n; i++ {
			r.l[i], c = bits.Add64(r.l[i], f.p[i], c)
		}
	}
	return r
}

// Neg returns -a.
func (f *Field) Neg(a Elt) Elt {
	if a.IsZero() {
		return a
	}
	var r Elt
	var bw uint64
	for i := 0; i < f.n; i++ {
		r.l[i], bw = bits.Sub64(f.p[i], a.l[i], bw)
	}
	return r
}

// Mul returns a·b: the Montgomery product a·b·R⁻¹ of the two
// representatives, which is the representative of the product. The
// fields that NewField marks for it (8 limbs, a top limb below 2⁶⁴−1,
// a CPU with BMI2 and ADX) run the assembly kernel mulADX. Every other
// field, CPU and architecture runs the generic product below, which is
// also the kernel's test reference; the two return the same reduced
// limbs whenever b < p, which every element satisfies.
//
// The generic product is the product-scanning (FIPS) form: output limb
// k accumulates every a_i·b_j and m_i·p_j with i+j = k in a three-word
// column sum, where m_k is chosen to clear limb k of a·b + m·p for
// k < n. The upper n limbs of that sum are below 2p, so one conditional
// subtraction reduces them. Summing a column before propagating its
// carries measured 15–25% faster than the operand-scanning (CIOS) loop
// at 2 and 8 limbs. It stays in Mul's body: a call to it cost 25% at 2
// limbs.
func (f *Field) Mul(a, b Elt) Elt {
	if f.adx {
		var z Elt
		mulADX(&z.l, &a.l, &b.l, &f.p, f.pInv)
		return z
	}
	n := f.n
	var m, t [maxLimbs]uint64
	var c0, c1, c2 uint64
	for k := 0; k < n; k++ {
		for i := 0; i < k; i++ {
			c0, c1, c2 = mac(a.l[i], b.l[k-i], c0, c1, c2)
			c0, c1, c2 = mac(m[i], f.p[k-i], c0, c1, c2)
		}
		c0, c1, c2 = mac(a.l[k], b.l[0], c0, c1, c2)
		m[k] = c0 * f.pInv
		_, c1, c2 = mac(m[k], f.p[0], c0, c1, c2) // clears the low word
		c0, c1, c2 = c1, c2, 0
	}
	for k := n; k < 2*n; k++ {
		for i := k - n + 1; i < n; i++ {
			c0, c1, c2 = mac(a.l[i], b.l[k-i], c0, c1, c2)
			c0, c1, c2 = mac(m[i], f.p[k-i], c0, c1, c2)
		}
		t[k-n] = c0
		c0, c1, c2 = c1, c2, 0
	}
	var s Elt
	var bw uint64
	for i := 0; i < n; i++ {
		s.l[i], bw = bits.Sub64(t[i], f.p[i], bw)
	}
	if c0 != 0 || bw == 0 {
		return s
	}
	return Elt{l: t}
}

// mac adds x·y to the three-word accumulator (c0, c1, c2).
func mac(x, y, c0, c1, c2 uint64) (uint64, uint64, uint64) {
	hi, lo := bits.Mul64(x, y)
	var cc uint64
	c0, cc = bits.Add64(c0, lo, 0)
	c1, cc = bits.Add64(c1, hi, cc)
	return c0, c1, c2 + cc
}

// Square returns a².
func (f *Field) Square(a Elt) Elt { return f.Mul(a, a) }

// fromMont returns the canonical value of e in limbs (e·R⁻¹).
func (f *Field) fromMont(e Elt) Elt { return f.Mul(e, Elt{l: [maxLimbs]uint64{1}}) }

// Inv returns a⁻¹. It panics on zero, which callers must exclude.
//
// It inverts the canonical value of a's representative a·R by safegcd
// (invCanonical, on the limbs, allocating nothing) and multiplies by
// R³, which lands on a⁻¹·R with one Montgomery product.
func (f *Field) Inv(a Elt) Elt {
	if a.IsZero() {
		panic("ff: inverse of zero")
	}
	return f.Mul(Elt{l: f.invCanonical(a.l)}, f.r3)
}

// Exp returns a^k by square-and-multiply. Negative exponents invert
// first.
func (f *Field) Exp(a Elt, k *big.Int) Elt {
	if k.Sign() < 0 {
		return f.Exp(f.Inv(a), new(big.Int).Neg(k))
	}
	r := f.one
	for i := k.BitLen() - 1; i >= 0; i-- {
		r = f.Square(r)
		if k.Bit(i) == 1 {
			r = f.Mul(r, a)
		}
	}
	return r
}

// Sqrt returns a square root of a and true, or the zero element and
// false when a is a non-residue. Uses the p ≡ 3 (mod 4) shortcut
// r = a^((p+1)/4).
func (f *Field) Sqrt(a Elt) (Elt, bool) {
	if a.IsZero() {
		return f.Zero(), true
	}
	r := f.Exp(a, f.sqrtExp)
	if !f.Square(r).Equal(a) {
		return f.Zero(), false
	}
	return r, true
}

// Bytes returns the fixed-width big-endian encoding of e's canonical
// value, padded to the byte length of p.
func (f *Field) Bytes(e Elt) []byte { return f.AppendBytes(make([]byte, 0, f.size), e) }

// AppendBytes appends Bytes(e) to dst.
func (f *Field) AppendBytes(dst []byte, e Elt) []byte {
	c := f.fromMont(e)
	var buf [8 * maxLimbs]byte
	for i := 0; i < f.n; i++ {
		binary.BigEndian.PutUint64(buf[len(buf)-8*(i+1):], c.l[i])
	}
	return append(dst, buf[len(buf)-f.size:]...)
}

// ByteLen returns the length of Bytes' encodings: the byte length of p.
func (f *Field) ByteLen() int { return f.size }

// Limbs returns e's Montgomery limbs, least significant first: the raw
// form chain records store, meaningful only to e's field.
func (e Elt) Limbs() [maxLimbs]uint64 { return e.l }

// EltFromLimbs is the inverse of Limbs. The value is not reduced:
// receivers of untrusted limbs must check it with InField (curve
// membership checks do this transitively).
func EltFromLimbs(l [maxLimbs]uint64) Elt { return Elt{l: l} }

// InField reports whether e is a canonical representative: its limbs
// above the field's width are zero and its value is below p.
func (f *Field) InField(e Elt) bool {
	for i := f.n; i < maxLimbs; i++ {
		if e.l[i] != 0 {
			return false
		}
	}
	for i := f.n - 1; i >= 0; i-- {
		if e.l[i] != f.p[i] {
			return e.l[i] < f.p[i]
		}
	}
	return false // equal to p
}

// EltFromBytes decodes a big-endian encoding such as Bytes produces.
// Values at or above p are rejected so that encodings stay canonical.
func (f *Field) EltFromBytes(b []byte) (Elt, error) {
	v := b
	for len(v) > 0 && v[0] == 0 {
		v = v[1:]
	}
	if len(v) > 8*f.n {
		return Elt{}, fmt.Errorf("ff: encoding %d bytes not canonical", len(b))
	}
	var buf [8 * maxLimbs]byte
	copy(buf[len(buf)-len(v):], v)
	var e Elt
	for i := range e.l {
		e.l[i] = binary.BigEndian.Uint64(buf[len(buf)-8*(i+1):])
	}
	if !f.InField(e) {
		return Elt{}, fmt.Errorf("ff: encoding %d bytes not canonical", len(b))
	}
	return f.Mul(e, f.r2), nil
}
