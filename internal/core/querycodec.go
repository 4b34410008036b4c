package core

import (
	"errors"
	"fmt"
	"math"
)

// Query and gap wire codec: the canonical encodings the service
// protocol ships beside the VOs of vocodec.go, built from the same
// primitives (big-endian integers, u16-framed strings, vocodec's
// clause form). Every accepted input re-encodes to the identical byte
// string. Integers are i64 (two's complement in a u64) so no value a
// Go int can hold is refused on 64-bit hosts.
//
// Layout:
//
//	query = i64 StartBlock, i64 EndBlock, i64 Width,
//	        u8 hasRange, [u16 nLo, i64…, u16 nHi, i64…],
//	        u16 nClauses, clause…
//	gaps  = u32 n, then (i64 Start, i64 End)…

// ErrWireDecode wraps every malformed query or gap encoding.
var ErrWireDecode = errors.New("core: malformed wire encoding")

// AppendQuery appends q's canonical encoding to b.
func AppendQuery(b []byte, q Query) []byte {
	e := &voEncoder{buf: b}
	e.i64(q.StartBlock)
	e.i64(q.EndBlock)
	e.i64(q.Width)
	if q.Range == nil {
		e.u8(0)
	} else {
		e.u8(1)
		e.ints(q.Range.Lo)
		e.ints(q.Range.Hi)
	}
	e.u16(uint16(len(q.Bool)))
	for _, c := range q.Bool {
		e.clause(c)
	}
	return e.buf
}

// ReadQuery decodes one AppendQuery encoding from the front of b and
// returns the bytes after it.
func ReadQuery(b []byte) (Query, []byte, error) {
	d := &voDecoder{buf: b, bad: ErrWireDecode}
	var q Query
	var err error
	if q.StartBlock, err = d.int(); err != nil {
		return Query{}, nil, err
	}
	if q.EndBlock, err = d.int(); err != nil {
		return Query{}, nil, err
	}
	if q.Width, err = d.int(); err != nil {
		return Query{}, nil, err
	}
	switch has, err := d.u8(); {
	case err != nil:
		return Query{}, nil, err
	case has == 1:
		q.Range = &RangeCond{}
		if q.Range.Lo, err = d.ints(); err != nil {
			return Query{}, nil, err
		}
		if q.Range.Hi, err = d.ints(); err != nil {
			return Query{}, nil, err
		}
	case has != 0:
		return Query{}, nil, fmt.Errorf("%w: bad range flag %d", ErrWireDecode, has)
	}
	n, err := d.u16()
	if err != nil {
		return Query{}, nil, err
	}
	// Each clause costs ≥ 2 bytes (its element count).
	if int(n) > (len(d.buf)-d.off)/2 {
		return Query{}, nil, fmt.Errorf("%w: clause count %d exceeds input", ErrWireDecode, n)
	}
	if n > 0 {
		q.Bool = make(CNF, 0, n)
	}
	for i := 0; i < int(n); i++ {
		c, err := d.clause()
		if err != nil {
			return Query{}, nil, err
		}
		q.Bool = append(q.Bool, c)
	}
	return q, d.buf[d.off:], nil
}

// AppendGaps appends the canonical encoding of a gap list to b.
func AppendGaps(b []byte, gaps []Gap) []byte {
	e := &voEncoder{buf: b}
	e.u32(uint32(len(gaps)))
	for _, g := range gaps {
		e.i64(g.Start)
		e.i64(g.End)
	}
	return e.buf
}

// ReadGaps decodes one AppendGaps encoding from the front of b and
// returns the bytes after it.
func ReadGaps(b []byte) ([]Gap, []byte, error) {
	d := &voDecoder{buf: b, bad: ErrWireDecode}
	n, err := d.u32()
	if err != nil {
		return nil, nil, err
	}
	if int64(n) > int64(len(d.buf)-d.off)/16 {
		return nil, nil, fmt.Errorf("%w: gap count %d exceeds input", ErrWireDecode, n)
	}
	var gaps []Gap
	if n > 0 {
		gaps = make([]Gap, n)
	}
	for i := range gaps {
		if gaps[i].Start, err = d.int(); err != nil {
			return nil, nil, err
		}
		if gaps[i].End, err = d.int(); err != nil {
			return nil, nil, err
		}
	}
	return gaps, d.buf[d.off:], nil
}

func (e *voEncoder) i64(v int) { e.u64(uint64(int64(v))) }

func (e *voEncoder) ints(vs []int64) {
	e.u16(uint16(len(vs)))
	for _, v := range vs {
		e.u64(uint64(v))
	}
}

// int reads an i64 that must fit this platform's int.
func (d *voDecoder) int() (int, error) {
	v, err := d.u64()
	if err != nil {
		return 0, err
	}
	if s := int64(v); s < math.MinInt || s > math.MaxInt {
		return 0, fmt.Errorf("%w: integer %d overflows int", d.malformed(), s)
	}
	return int(int64(v)), nil
}

func (d *voDecoder) ints() ([]int64, error) {
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	if int(n) > (len(d.buf)-d.off)/8 {
		return nil, fmt.Errorf("%w: vector length %d exceeds input", d.malformed(), n)
	}
	var out []int64
	if n > 0 {
		out = make([]int64, n)
	}
	for i := range out {
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		out[i] = int64(v)
	}
	return out, nil
}
