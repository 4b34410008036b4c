package core

import "github.com/vchain-go/vchain/internal/wire"

// Query and gap wire codec: the canonical encodings the service
// protocol ships beside the VOs of vocodec.go, on the same cursor and
// with vocodec's clause form. Every accepted input re-encodes to the
// identical byte string. Integers are i64 (two's complement in a u64)
// so no value a Go int can hold is refused on 64-bit hosts.
//
// Layout:
//
//	query = i64 StartBlock, i64 EndBlock, i64 Width,
//	        u8 hasRange, [u16 nLo, i64…, u16 nHi, i64…],
//	        u16 nClauses, clause…
//	gaps  = u32 n, then (i64 Start, i64 End)…

// WriteQuery appends q's canonical encoding to w.
func WriteQuery(w *wire.Writer, q Query) {
	w.Int(q.StartBlock)
	w.Int(q.EndBlock)
	w.Int(q.Width)
	if q.Range == nil {
		w.U8(0)
	} else {
		w.U8(1)
		writeInts(w, q.Range.Lo)
		writeInts(w, q.Range.Hi)
	}
	w.U16(uint16(len(q.Bool)))
	for _, c := range q.Bool {
		writeClause(w, c)
	}
}

// ReadQuery decodes one WriteQuery encoding from r.
func ReadQuery(r *wire.Reader) Query {
	q := Query{StartBlock: r.Int(), EndBlock: r.Int(), Width: r.Int()}
	switch has := r.U8(); has {
	case 1:
		q.Range = &RangeCond{Lo: readInts(r), Hi: readInts(r)}
	case 0:
	default:
		r.Failf("bad range flag %d", has)
	}
	// Each clause costs ≥ 2 bytes (its element count).
	if n := r.Count16(2); n > 0 {
		q.Bool = make(CNF, n)
	}
	for i := range q.Bool {
		q.Bool[i] = readClause(r)
	}
	return q
}

// WriteGaps appends the canonical encoding of a gap list to w.
func WriteGaps(w *wire.Writer, gaps []Gap) {
	w.U32(uint32(len(gaps)))
	for _, g := range gaps {
		w.Int(g.Start)
		w.Int(g.End)
	}
}

// ReadGaps decodes one WriteGaps encoding from r.
func ReadGaps(r *wire.Reader) []Gap {
	var gaps []Gap
	if n := r.Count32(16); n > 0 {
		gaps = make([]Gap, n)
	}
	for i := range gaps {
		gaps[i] = Gap{Start: r.Int(), End: r.Int()}
	}
	return gaps
}

func writeInts(w *wire.Writer, vs []int64) {
	w.U16(uint16(len(vs)))
	for _, v := range vs {
		w.U64(uint64(v))
	}
}

func readInts(r *wire.Reader) []int64 {
	var out []int64
	if n := r.Count16(8); n > 0 {
		out = make([]int64, n)
	}
	for i := range out {
		out[i] = int64(r.U64())
	}
	return out
}
