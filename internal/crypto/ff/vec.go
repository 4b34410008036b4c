package ff

import "math/big"

// The 8-lane kernel. On amd64 CPUs with AVX-512 IFMA, fields of 8 live
// limbs also run a Montgomery product over eight independent elements
// at once (vec_amd64.s). Its form differs from Elt's: radix 2⁵², ten
// limbs, and Montgomery factor R′ = 2⁵²⁰ (> 4p), so that a product of
// two values below 2p is again below 2p and needs no final
// subtraction. It serves two callers:
//
//   - ec's affine rounds, whose additions are independent of one
//     another (VecSub, VecInvertEach, VecChord). Elt representatives
//     enter lanes unchanged (Set) and so stand, in the kernel's domain,
//     for their element times R/R′ = 2⁻⁸; the operations are arranged
//     so that the lanes the callers read back (Get) hold Elt
//     representatives again, and no conversion between the domains is
//     ever multiplied out.
//   - pairing's Miller loops, one pair per lane (VecMul, VecAdd, VecSub
//     and VecExt's F_p² on them). These values enter the kernel's
//     domain once (VecEnter) and leave it once (VecLeave).
//
// Lane arithmetic reduces lazily: VecMul, VecAdd and VecSub take lanes
// below 2p and leave lanes below 2p, congruent to the product, sum or
// difference; only VecChord and VecLeave reduce below p.

const (
	vecLimbs = 10 // limbs of 52 bits: 520 bits
	vecLanes = 8
	mask52   = 1<<52 - 1
)

// Vec holds eight field elements, one per lane, limb-major: Vec[k][j]
// is limb k (52 bits) of lane j. It is meaningful only to the field
// whose kernel computed it.
type Vec [vecLimbs][vecLanes]uint64

// vecConst is what the kernel reads of the field, in the layout
// vec_amd64.s addresses.
type vecConst struct {
	p, p2 [vecLimbs]uint64 // p and 2p in radix 2⁵²
	pInv  uint64           // −p⁻¹ mod 2⁵²
	mask  uint64           // 2⁵² − 1
	mask8 uint64           // 2⁸ − 1
	// one is R′ mod p in every lane, the start of VecInvertEach's
	// chains; k is 2⁵²⁸ mod p, which turns Inv's result into the
	// kernel's inverse.
	one Vec
	k   Elt
	// enter is 2⁵²⁸ mod p and leave 2⁵¹² mod p in every lane: VecEnter's
	// and VecLeave's factors.
	enter, leave Vec
}

// newVecConst builds the kernel constants of f.
func newVecConst(f *Field) *vecConst {
	c := &vecConst{pInv: f.pInv & mask52, mask: mask52, mask8: 1<<8 - 1}
	c.p = limbs52(f.P)
	c.p2 = limbs52(new(big.Int).Lsh(f.P, 1))
	one := limbs52(new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), 520), f.P))
	for k := range one {
		for j := range vecLanes {
			c.one[k][j] = one[k]
		}
	}
	c.k = Elt{l: limbsOf(new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), 528), f.P))}
	for j := range vecLanes {
		c.enter.Set(j, c.k)
		c.leave.Set(j, f.one)
	}
	return c
}

// limbs52 splits a non-negative integer below 2⁵²⁰ into 52-bit limbs.
func limbs52(v *big.Int) (l [vecLimbs]uint64) {
	t := new(big.Int).Set(v)
	m := big.NewInt(mask52)
	for k := range l {
		l[k] = new(big.Int).And(t, m).Uint64()
		t.Rsh(t, 52)
	}
	return l
}

// HasVec reports whether f runs the 8-lane kernel (every Vec operation
// of Field and VecExt): 8 live limbs on an amd64 CPU with AVX-512 IFMA
// whose operating system keeps the ZMM and opmask state.
func (f *Field) HasVec() bool { return f.vec != nil }

// VecLanes is the number of lanes of a Vec.
const VecLanes = vecLanes

// Set puts e's representative into lane j.
func (v *Vec) Set(j int, e Elt) {
	j &= vecLanes - 1
	l := &e.l
	v[0][j] = l[0] & mask52
	v[1][j] = (l[0]>>52 | l[1]<<12) & mask52
	v[2][j] = (l[1]>>40 | l[2]<<24) & mask52
	v[3][j] = (l[2]>>28 | l[3]<<36) & mask52
	v[4][j] = (l[3]>>16 | l[4]<<48) & mask52
	v[5][j] = l[4] >> 4 & mask52
	v[6][j] = (l[4]>>56 | l[5]<<8) & mask52
	v[7][j] = (l[5]>>44 | l[6]<<20) & mask52
	v[8][j] = (l[6]>>32 | l[7]<<32) & mask52
	v[9][j] = l[7] >> 20
}

// Get returns the element whose representative is lane j, which must
// be below 2⁵¹² (a result of VecChord is below p).
func (v *Vec) Get(j int) Elt {
	j &= vecLanes - 1
	return Elt{l: [maxLimbs]uint64{
		v[0][j] | v[1][j]<<52,
		v[1][j]>>12 | v[2][j]<<40,
		v[2][j]>>24 | v[3][j]<<28,
		v[3][j]>>36 | v[4][j]<<16,
		v[4][j]>>48 | v[5][j]<<4 | v[6][j]<<56,
		v[6][j]>>8 | v[7][j]<<44,
		v[7][j]>>20 | v[8][j]<<32,
		v[8][j]>>32 | v[9][j]<<20,
	}}
}

// VecMul sets every lane of z to the Montgomery product x·y·2⁻⁵²⁰ mod
// p: the product in the kernel's domain. For x and y below 2p it is
// below 2p. z may alias x or y. Only valid where HasVec holds.
func (f *Field) VecMul(z, x, y *Vec) { vecMul(z, x, y, f.vec) }

// VecAdd sets z ≡ x + y lane by lane, and VecSub z ≡ x − y: for x and y
// below 2p, a value below 2p. z may alias x or y. Only valid where
// HasVec holds.
func (f *Field) VecAdd(z, x, y *Vec) { vecAdd(z, x, y, f.vec) }

func (f *Field) VecSub(z, x, y *Vec) { vecSub(z, x, y, f.vec) }

// VecEnter sets z to the kernel's form of the elements whose Elt
// representatives x's lanes hold (Set), below 2p. VecLeave is its
// inverse: it sets z to the Elt representatives, below p, of the
// elements x's lanes hold in the kernel's form, for Get. Each costs
// one VecMul. z may alias x. Only valid where HasVec holds.
func (f *Field) VecEnter(z, x *Vec) { vecMul(z, x, &f.vec.enter, f.vec) }

func (f *Field) VecLeave(z, x *Vec) {
	vecMul(z, x, &f.vec.leave, f.vec)
	vecReduce(z, z, f.vec)
}

// VecInvertEach sets every lane of inv[b] to the inverse, in the
// kernel's domain, of the same lane of xs[b], with one field inversion
// for all of them (Montgomery's trick in eight interleaved chains, lane
// j of every Vec being one chain). Every lane must be non-zero mod p
// and below 2p; the inverses are below 2p. inv must be at least as
// long as xs. Only valid where HasVec holds.
//
// Lane values are Elt representatives a = α·R, which the kernel reads
// as α·2⁻⁸; the inverse it leaves, 2⁵²⁸/a, is what VecChord multiplies
// by to get slopes in its own domain.
func (f *Field) VecInvertEach(xs, inv []Vec) {
	if len(xs) == 0 {
		return
	}
	c := f.vec
	// inv[b] first holds the chains' product before xs[b].
	acc := c.one
	for b := range xs {
		inv[b] = acc
		vecMul(&acc, &acc, &xs[b], c)
	}
	// Invert the eight chains' products together. A butterfly over the
	// lanes leaves in every lane of tot their product T and in lane j
	// of ex the product of all lanes but j, each Montgomery product
	// dividing by R′ once more: tot = Π a/R′⁷, ex_j = Π_{i≠j} a_i/R′⁶.
	// Then R′²/a_j, the kernel's inverse of a_j, is ex_j·(R′²/T)/R′.
	// Inv reads T as an Elt representative and returns R²/T, and one
	// product with 2⁵²⁸ turns that into R′²/T.
	var tot, ex, sw Vec
	tot = acc
	for d := 1; d < vecLanes; d <<= 1 {
		swapLanes(&sw, &tot, d)
		if d == 1 {
			ex = sw
		} else {
			vecMul(&ex, &ex, &sw, c)
		}
		vecMul(&tot, &tot, &sw, c)
	}
	vecReduce(&sw, &tot, c)
	y := f.Mul(f.Inv(sw.Get(0)), c.k)
	for j := range vecLanes {
		sw.Set(j, y)
	}
	vecMul(&acc, &ex, &sw, c)
	for b := len(xs) - 1; b >= 0; b-- {
		vecMul(&inv[b], &acc, &inv[b], c)
		vecMul(&acc, &acc, &xs[b], c)
	}
}

// swapLanes sets z's lane j to x's lane j xor d.
func swapLanes(z, x *Vec, d int) {
	for k := range z {
		for j := range vecLanes {
			z[k][j] = x[k][j^d]
		}
	}
}

// VecChord adds the point pairs of eight lanes in affine coordinates:
// with λ = (y2 − y1)·inv, it sets x3 = λ² − x1 − x2 and
// y3 = λ·(x1 − x3) − y1, below p. The coordinates are Elt
// representatives below p and inv is VecInvertEach's inverse of
// x2 − x1 (or of any other denominator of λ, whose numerator y2 − y1
// then stands for). Only valid where HasVec holds.
//
// In the kernel's domain inv is 2⁸/(x2 − x1), so l = (y2 − y1)·inv is
// λ itself and l·2⁻⁸ is λ's Elt representative; products of one of
// each, l·(l·2⁻⁸) and l·(x1 − x3), are again Elt representatives.
func (f *Field) VecChord(x3, y3, x1, y1, x2, y2, inv *Vec) {
	vecChord(x3, y3, x1, y1, x2, y2, inv, f.vec)
}

// Vec2 holds eight elements of F_p² = F_p[i]/(i²+1), lane j of A and B
// being lane j's A + B·i.
type Vec2 struct{ A, B Vec }

// VecExt runs Ext's F_p² formulas on the kernel, lane by lane, on
// values in the kernel's form with VecMul's, VecAdd's and VecSub's
// bounds. It holds the scratch its products need, so one VecExt serves
// one goroutine. Only valid where HasVec holds.
type VecExt struct {
	f       *Field
	s, t, u Vec
}

// NewVecExt returns a VecExt over f.
func (f *Field) NewVecExt() *VecExt { return &VecExt{f: f} }

// Mul sets z = a·b with Ext.Mul's three products. z may alias a or b.
func (x *VecExt) Mul(z, a, b *Vec2) {
	f := x.f
	f.VecAdd(&x.s, &a.A, &a.B)
	f.VecAdd(&x.t, &b.A, &b.B)
	f.VecMul(&x.s, &x.s, &x.t)
	f.VecMul(&x.t, &a.A, &b.A)
	f.VecMul(&x.u, &a.B, &b.B)
	f.VecSub(&z.A, &x.t, &x.u)
	f.VecSub(&z.B, &x.s, &x.t)
	f.VecSub(&z.B, &z.B, &x.u)
}

// Square sets z = a² with Ext.Square's two products. z may alias a.
func (x *VecExt) Square(z, a *Vec2) {
	f := x.f
	f.VecMul(&x.u, &a.A, &a.B)
	f.VecAdd(&x.s, &a.A, &a.B)
	f.VecSub(&x.t, &a.A, &a.B)
	f.VecMul(&z.A, &x.s, &x.t)
	f.VecAdd(&z.B, &x.u, &x.u)
}
