//go:build !amd64

package ff

// hasADX is false: the assembly kernel exists for amd64 only.
const hasADX = false

// mulADX is never called where hasADX is false.
func mulADX(z, x, y, p *[maxLimbs]uint64, pInv uint64) {
	panic("ff: no assembly Montgomery kernel on this architecture")
}
