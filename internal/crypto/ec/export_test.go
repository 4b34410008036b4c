package ec

// SumEachWith exposes sumEach to the external tests and benchmarks,
// which force either of its paths.
func (c *Curve) SumEachWith(groups [][]Point, minPairs int) []Point {
	return c.sumEach(groups, minPairs)
}

// ScalarRounds returns a copy of c whose affine rounds run on Field.Mul
// even where the field has the 8-lane kernel, and VecRounds one whose
// affine rounds run on the kernel, where the field has it, whatever
// their size.
func (c *Curve) ScalarRounds() *Curve { return c.withRounds(scalarRounds) }

func (c *Curve) VecRounds() *Curve { return c.withRounds(vecRounds) }

func (c *Curve) withRounds(r int) *Curve {
	d := *c
	d.rounds = r
	return &d
}
