package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

var errTest = errors.New("test sentinel")

// TestRoundTrip: every field a Writer appends, a Reader reads back in
// order, and Done accepts the exhausted input.
func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(7)
	w.U16(math.MaxUint16)
	w.U32(1 << 31)
	w.U64(math.MaxUint64)
	w.Int(-42)
	w.Bytes16([]byte("ab"))
	w.String32("cde")
	w.Raw([]byte{9})
	r := NewReader(w.Buf, errTest)
	if r.U8() != 7 || r.U16() != math.MaxUint16 || r.U32() != 1<<31 || r.U64() != math.MaxUint64 ||
		r.Int() != -42 || !bytes.Equal(r.Bytes16(), []byte("ab")) || r.String32() != "cde" || r.U8() != 9 {
		t.Fatal("fields do not read back")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestFailureSticks: the first failure wraps the caller's sentinel and
// stays; every read after it is a zero value and every count zero.
func TestFailureSticks(t *testing.T) {
	var w Writer
	w.U32(1000) // a count no input of this size affords
	w.U64(5)
	r := NewReader(w.Buf, errTest)
	if n := r.Count32(1); n != 0 {
		t.Fatalf("forged count read as %d", n)
	}
	first := r.Err()
	if !errors.Is(first, errTest) {
		t.Fatalf("failure %v does not wrap the sentinel", first)
	}
	if r.U64() != 0 || r.Take(0) != nil || r.Count16(0) != 0 || r.Done() != first || r.Rest() != nil {
		t.Fatal("reads after a failure are not zero, or the first failure was replaced")
	}

	for _, c := range []struct {
		name string
		in   []byte
		read func(*Reader)
	}{
		{"truncated", []byte{1, 2, 3}, func(r *Reader) { r.U32() }},
		{"trailing", []byte{1, 2}, func(r *Reader) { r.U8() }},
		{"string past the end", []byte{0, 5, 'a'}, func(r *Reader) { r.String16() }},
	} {
		r := NewReader(c.in, errTest)
		c.read(r)
		if err := r.Done(); !errors.Is(err, errTest) {
			t.Errorf("%s: %v, want the sentinel", c.name, err)
		}
	}
}
