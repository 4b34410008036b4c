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
