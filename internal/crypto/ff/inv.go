package ff

import "math/bits"

// Inversion by Bernstein and Yang's safegcd (IACR ePrint 2019/266), in
// the variable-time form of libsecp256k1's modinv64: batches of 62
// divsteps, each batch computed from the low 64 bits of f and g alone
// as a 2×2 transition matrix and then applied to the full values.
//
// f and g are signed integers in two's complement over l live limbs,
// sign-extended in limb l. They start as p and the input x and never
// grow in absolute value, so n+1 limbs hold them, and l shrinks as
// they do.
// d and e are the Bézout coefficients, reduced mod p: d·x ≡ f and
// e·x ≡ g (mod p). Once g = 0, f = ±gcd(p, x) = ±1, so ±d is x⁻¹.

// wideLimbs holds the signed f or g: up to maxLimbs+1 live limbs and
// one more for the sign extension.
type wideLimbs = [maxLimbs + 2]uint64

// trans is a batch's transition matrix, scaled by 2⁶²:
// (f', g') = ((u·f + v·g)/2⁶², (q·f + r·g)/2⁶²). Each row's absolute
// values sum to at most 2⁶².
type trans struct{ u, v, q, r int64 }

// invCanonical returns x⁻¹ mod p for a canonical 0 < x < p, both in
// limbs (not Montgomery form). p must be prime.
func (f *Field) invCanonical(x [maxLimbs]uint64) [maxLimbs]uint64 {
	n := f.n
	// Each batch writes the new f, g, d, e into the other of two sets
	// of arrays, so that none is copied.
	var fg [2][2]wideLimbs
	var de [2][2][maxLimbs]uint64
	copy(fg[0][0][:n], f.p[:n])
	copy(fg[0][1][:n], x[:n])
	de[0][1][0] = 1
	l := n + 1
	eta := int64(-1) // −δ, with δ = 1 initially
	cur := 0
	for {
		var t trans
		fv, gv := &fg[cur][0], &fg[cur][1]
		eta, t = divsteps62(eta, fv[0], gv[0])
		f.updateDE(&de[1-cur][0], &de[1-cur][1], &de[cur][0], &de[cur][1], t)
		updateFG(&fg[1-cur][0], &fg[1-cur][1], fv, gv, t, l)
		cur = 1 - cur
		fv, gv = &fg[cur][0], &fg[cur][1]
		var nz uint64
		for i := 0; i < l; i++ {
			nz |= gv[i]
		}
		if nz == 0 {
			break
		}
		// Drop the top limb once it is only the sign of both f and g.
		if l > 1 {
			fn, gn := int64(fv[l-1]), int64(gv[l-1])
			fb, gb := int64(fv[l-2])>>63, int64(gv[l-2])>>63
			if fn == fb && gn == gb {
				l--
			}
		}
	}
	// f is ±1: its top live limb holds the sign.
	d := &de[cur][0]
	if int64(fg[cur][0][l-1]) < 0 {
		var r [maxLimbs]uint64
		f.negMod(&r, d)
		return r
	}
	return *d
}

// divsteps62 runs 62 divsteps on the low bits of f (odd) and g and
// returns the new eta and the transition matrix. It skips a run of
// zero bits of g in one step, and cancels up to 6 (after a swap) or 4
// low bits of g with one multiple of f.
func divsteps62(eta int64, f, g uint64) (int64, trans) {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	i := 62
	// Every shift count below is under 64; masking it with 63 says so
	// to the compiler, which then emits the bare shift.
	for {
		// A sentinel bit counts zeros only up to i.
		zeros := uint(bits.TrailingZeros64(g|^uint64(0)<<(uint(i)&63))) & 63
		g >>= zeros
		u <<= zeros
		v <<= zeros
		eta -= int64(zeros)
		i -= int(zeros)
		if i == 0 {
			break
		}
		var w uint64
		if eta < 0 {
			eta = -eta
			f, g = g, -f
			u, q = q, -u
			v, r = r, -v
			m := (^uint64(0) >> (uint(64-min(int(eta)+1, i)) & 63)) & 63
			w = (f * g * (f*f - 2)) & m // −g/f mod 2⁶: f(2 − f²) inverts f mod 64
		} else {
			m := (^uint64(0) >> (uint(64-min(int(eta)+1, i)) & 63)) & 15
			w = f + (((f + 1) & 4) << 1) // f⁻¹ mod 16
			w = (-w * g) & m
		}
		g += f * w
		q += u * w
		r += v * w
	}
	return eta, trans{int64(u), int64(v), int64(q), int64(r)}
}

// updateFG sets nf, ng to ((u·f + v·g)/2⁶², (q·f + r·g)/2⁶²) for
// signed f, g of l limbs, each sign-extended in limb l, and leaves them
// sign-extended too. The divisions are exact, and the results are no
// larger in absolute value than the larger of f and g.
func updateFG(nf, ng, f, g *wideLimbs, t trans, l int) {
	lincomb62(nf, f, g, t.u, t.v, l)
	lincomb62(ng, f, g, t.q, t.r, l)
}

// lincomb62 sets z to (a·x + b·y) >> 62, as updateFG describes. A
// negative factor negates its operand instead, limb by limb as the sum
// goes, so both factors are non-negative: each limb's two products and
// carry then fit two words, and the sum is right modulo 2^(64(l+1)),
// which holds it.
func lincomb62(z, x, y *wideLimbs, a, b int64, l int) {
	ma, mb := uint64(a>>63), uint64(b>>63) // all ones for a negative factor
	ua, ub := (uint64(a)^ma)-ma, (uint64(b)^mb)-mb
	cx, cy := ma&1, mb&1 // −x = ^x + 1
	var prev, carry uint64
	for i := 0; i <= l; i++ {
		var xi, yi, c uint64
		xi, cx = bits.Add64(x[i]^ma, 0, cx)
		yi, cy = bits.Add64(y[i]^mb, 0, cy)
		h1, l1 := bits.Mul64(xi, ua)
		h2, l2 := bits.Mul64(yi, ub)
		lo, c := bits.Add64(l1, l2, 0)
		hi := h1 + h2 + c
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		if i > 0 {
			z[i-1] = prev>>62 | lo<<2
		}
		prev, carry = lo, hi
	}
	z[l] = uint64(int64(z[l-1]) >> 63)
}

// updateDE sets nd, ne to ((u·d + v·e)·2⁻⁶², (q·d + r·e)·2⁻⁶²) mod p
// for d, e in [0, p), both in [0, p).
func (f *Field) updateDE(nd, ne, d, e *[maxLimbs]uint64, t trans) {
	f.lincombMod(nd, d, e, t.u, t.v)
	f.lincombMod(ne, d, e, t.q, t.r)
}

// lincombMod sets z to (a·x + b·y)·2⁻⁶² mod p for x, y in [0, p) and
// |a| + |b| ≤ 2⁶². A negative factor takes p − x for its operand x, so
// the sum s = |a|·x' + |b|·y' is non-negative and below 2⁶²·p. Adding
// k·p for the k < 2⁶² that clears s's low 62 bits (Montgomery reduction
// by 2⁶²) makes it divisible, and the quotient is below 2p: one
// conditional subtraction reduces it. Each limb's three products and
// carry fit two words.
func (f *Field) lincombMod(z, x, y *[maxLimbs]uint64, a, b int64) {
	na, nb := a < 0, b < 0
	if na {
		a = -a
	}
	if nb {
		b = -b
	}
	ua, ub := uint64(a), uint64(b)
	x0, y0 := x[0], y[0]
	if na {
		x0 = f.p[0] - x0
	}
	if nb {
		y0 = f.p[0] - y0
	}
	const mask62 = 1<<62 - 1
	k := ((x0*ua + y0*ub) * f.pInv) & mask62
	n := f.n
	var prev, carry, bx, by uint64
	for i := 0; i < n; i++ {
		xi, yi := x[i], y[i]
		if na {
			xi, bx = bits.Sub64(f.p[i], xi, bx)
		}
		if nb {
			yi, by = bits.Sub64(f.p[i], yi, by)
		}
		var c uint64
		h1, l1 := bits.Mul64(xi, ua)
		h2, l2 := bits.Mul64(yi, ub)
		h3, l3 := bits.Mul64(f.p[i], k)
		lo, c := bits.Add64(l1, l2, 0)
		hi := h1 + h2 + c
		lo, c = bits.Add64(lo, l3, 0)
		hi += h3 + c
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		if i > 0 {
			z[i-1] = prev>>62 | lo<<2
		}
		prev, carry = lo, hi
	}
	z[n-1] = prev>>62 | carry<<2
	// carry>>62 is the quotient's bit at 2^(64n).
	var sub [maxLimbs]uint64
	var bw uint64
	for i := 0; i < n; i++ {
		sub[i], bw = bits.Sub64(z[i], f.p[i], bw)
	}
	if carry>>62 != 0 || bw == 0 {
		*z = sub
	}
}

// negMod sets z to p − x for x in [0, p).
func (f *Field) negMod(z, x *[maxLimbs]uint64) {
	var bw uint64
	for i := 0; i < f.n; i++ {
		z[i], bw = bits.Sub64(f.p[i], x[i], bw)
	}
}
