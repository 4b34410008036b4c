// Package wire is the byte cursor every binary format of the module is
// built on: the VO codec, the query and gap encodings, the chain
// record and the service frames. Integers are big-endian; an "int" is
// an i64, two's complement in a u64.
//
// A Writer appends fields. A Reader consumes a byte slice front to back
// and keeps its first failure, wrapped in the sentinel its caller
// names, so a decoder reads field after field and asks Err once per
// message. After a failure every read returns a zero value and every
// count is zero, so no loop or allocation outlives it.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer appends big-endian fields to Buf.
type Writer struct{ Buf []byte }

func (w *Writer) U8(v uint8)        { w.Buf = append(w.Buf, v) }
func (w *Writer) U16(v uint16)      { w.Buf = binary.BigEndian.AppendUint16(w.Buf, v) }
func (w *Writer) U32(v uint32)      { w.Buf = binary.BigEndian.AppendUint32(w.Buf, v) }
func (w *Writer) U64(v uint64)      { w.Buf = binary.BigEndian.AppendUint64(w.Buf, v) }
func (w *Writer) Int(v int)         { w.U64(uint64(int64(v))) }
func (w *Writer) Raw(b []byte)      { w.Buf = append(w.Buf, b...) }
func (w *Writer) Bytes16(b []byte)  { w.U16(uint16(len(b))); w.Raw(b) }
func (w *Writer) Bytes32(b []byte)  { w.U32(uint32(len(b))); w.Raw(b) }
func (w *Writer) String16(s string) { w.U16(uint16(len(s))); w.Buf = append(w.Buf, s...) }
func (w *Writer) String32(s string) { w.U32(uint32(len(s))); w.Buf = append(w.Buf, s...) }

// Reader decodes a byte slice front to back.
type Reader struct {
	b   []byte
	bad error // the sentinel every failure wraps
	err error // the first failure
}

// NewReader returns a cursor over b whose failures wrap bad.
func NewReader(b []byte, bad error) *Reader { return &Reader{b: b, bad: bad} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Failf records a failure wrapping the reader's sentinel, unless one
// is recorded already, and drops the remaining input.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.bad, fmt.Sprintf(format, args...))
	}
	r.b = nil
}

// Done fails on trailing bytes and returns the first failure.
func (r *Reader) Done() error {
	if len(r.b) != 0 {
		r.Failf("%d trailing bytes", len(r.b))
	}
	return r.err
}

// Take returns the next n bytes, or nil after a failure.
func (r *Reader) Take(n int) []byte {
	if n < 0 || len(r.b) < n {
		r.Failf("truncated")
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// Rest returns every unread byte.
func (r *Reader) Rest() []byte {
	out := r.b
	r.b = nil
	return out
}

func (r *Reader) U8() uint8 {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if b := r.Take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Int reads an i64 that must fit this platform's int.
func (r *Reader) Int() int {
	v := int64(r.U64())
	if v < math.MinInt || v > math.MaxInt {
		r.Failf("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// Count16 and Count32 read an element count whose elements cost at
// least size bytes each, so a forged count cannot force an allocation
// larger than the input affords.
func (r *Reader) Count16(size int) int { return r.count(int64(r.U16()), size) }
func (r *Reader) Count32(size int) int { return r.count(int64(r.U32()), size) }

func (r *Reader) count(n int64, size int) int {
	if n*int64(size) > int64(len(r.b)) {
		r.Failf("count %d exceeds the input", n)
		return 0
	}
	return int(n)
}

// Bytes16 and Bytes32 read a byte string behind a u16 or u32 length.
func (r *Reader) Bytes16() []byte { return r.Take(r.Count16(1)) }
func (r *Reader) Bytes32() []byte { return r.Take(r.Count32(1)) }

func (r *Reader) String16() string { return string(r.Bytes16()) }
func (r *Reader) String32() string { return string(r.Bytes32()) }
