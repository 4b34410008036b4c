//go:build !amd64

package ff

// hasADX and hasIFMA are false: the assembly kernels exist for amd64
// only.
const (
	hasADX  = false
	hasIFMA = false
)

// mulADX is never called where hasADX is false.
func mulADX(z, x, y, p *[maxLimbs]uint64, pInv uint64) {
	panic("ff: no assembly Montgomery kernel on this architecture")
}

// The 8-lane kernel's functions are never called where hasIFMA is
// false.
func vecMul(z, x, y *Vec, c *vecConst) { panic("ff: no 8-lane kernel on this architecture") }

func vecAdd(z, x, y *Vec, c *vecConst) { panic("ff: no 8-lane kernel on this architecture") }

func vecSub(z, x, y *Vec, c *vecConst) { panic("ff: no 8-lane kernel on this architecture") }

func vecReduce(z, x *Vec, c *vecConst) { panic("ff: no 8-lane kernel on this architecture") }

func vecChord(x3, y3, x1, y1, x2, y2, inv *Vec, c *vecConst) {
	panic("ff: no 8-lane kernel on this architecture")
}
