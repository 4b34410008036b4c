package ff

// hasADX reports whether the CPU has the MULX, ADCX and ADOX
// instructions that mulADX needs.
var hasADX = cpuHasADX()

// hasIFMA reports whether the CPU has AVX-512F and AVX-512 IFMA and the
// operating system saves the opmask and ZMM state, which the 8-lane
// kernel (vec_amd64.s) needs.
var hasIFMA = cpuHasIFMA()

// cpuHasADX reads the BMI2 and ADX bits of CPUID leaf 7.
func cpuHasADX() bool

// cpuHasIFMA reads the AVX512F and AVX512_IFMA bits of CPUID leaf 7
// and the state bits of XCR0.
func cpuHasIFMA() bool

// mulADX sets z to the Montgomery product x·y·R⁻¹ mod p at 8 limbs. It
// requires y < p and p's top limb below 2⁶⁴−1; z may alias x or y.
//
//go:noescape
func mulADX(z, x, y, p *[maxLimbs]uint64, pInv uint64)

// vecMul sets every lane of z to x·y·2⁻⁵²⁰ mod p, below 2p when
// x·y < 2⁵²⁰·p. z may alias x or y.
//
//go:noescape
func vecMul(z, x, y *Vec, c *vecConst)

// vecAdd sets every lane of z to x + y, and vecSub to x + 2p − y,
// each normalized and less 2p where that leaves it non-negative: below
// 2p for x and y below 2p.
//
//go:noescape
func vecAdd(z, x, y *Vec, c *vecConst)

//go:noescape
func vecSub(z, x, y *Vec, c *vecConst)

// vecReduce sets every lane of z to x less p where that leaves it
// non-negative: below p for x below 2p.
//
//go:noescape
func vecReduce(z, x *Vec, c *vecConst)

// vecChord is Field.VecChord.
//
//go:noescape
func vecChord(x3, y3, x1, y1, x2, y2, inv *Vec, c *vecConst)
