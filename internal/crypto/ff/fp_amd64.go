package ff

// hasADX reports whether the CPU has the MULX, ADCX and ADOX
// instructions that mulADX needs.
var hasADX = cpuHasADX()

// cpuHasADX reads the BMI2 and ADX bits of CPUID leaf 7.
func cpuHasADX() bool

// mulADX sets z to the Montgomery product x·y·R⁻¹ mod p at 8 limbs. It
// requires y < p and p's top limb below 2⁶⁴−1; z may alias x or y.
//
//go:noescape
func mulADX(z, x, y, p *[maxLimbs]uint64, pInv uint64)
