package ff

import "math/big"

// Generic returns a copy of f, the same modulus and constants, whose
// Mul runs the generic product whichever product f selects.
func (f *Field) Generic() *Field {
	g := *f
	g.adx = false
	return &g
}

// KernelSelected reports whether Mul runs the assembly kernel on f.
func (f *Field) KernelSelected() bool { return f.adx }

// MulKernel runs the assembly kernel on operand pointers, so that z can
// alias x or y. It is only valid where KernelSelected holds.
func (f *Field) MulKernel(z, x, y *Elt) { mulADX(&z.l, &x.l, &y.l, &f.p, f.pInv) }

// Raw returns the element whose representative is v, for 0 ≤ v < 2⁵¹².
func Raw(v *big.Int) Elt { return Elt{l: limbsOf(v)} }

// SetLane52 puts the integer v < 2⁵²⁰ into lane j of z, and Lane52
// reads lane j back, so that tests can feed the kernel values at and
// above p.
func SetLane52(z *Vec, j int, v *big.Int) {
	l := limbs52(v)
	for k := range l {
		z[k][j] = l[k]
	}
}

func Lane52(z *Vec, j int) *big.Int {
	v := new(big.Int)
	for k := vecLimbs - 1; k >= 0; k-- {
		v.Lsh(v, 52).Or(v, new(big.Int).SetUint64(z[k][j]))
	}
	return v
}

// HostIFMA reports whether this CPU and operating system can run the
// 8-lane kernel.
var HostIFMA = hasIFMA
