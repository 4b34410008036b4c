package ec

// SumEachWith exposes sumEach to the external tests and benchmarks,
// which force either of its paths.
func (c *Curve) SumEachWith(groups [][]Point, minPairs int) []Point {
	return c.sumEach(groups, minPairs)
}
