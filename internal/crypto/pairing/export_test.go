package pairing

// ScalarMiller returns a copy of pr whose Miller loops run on
// Field.Mul even where the field has the 8-lane kernel, on which pr's
// run there.
func (pr *Params) ScalarMiller() *Params {
	q := *pr
	q.scalarMiller = true
	return &q
}
