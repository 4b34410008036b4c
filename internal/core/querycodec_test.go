package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/vchain-go/vchain/internal/wire"
)

// errTestDecode is the sentinel the codec tests hand the cursor.
var errTestDecode = errors.New("test decode")

// TestQueryCodecRoundTrip: queries and gap lists survive their wire
// encodings, bytes after them are left on the cursor, and every
// truncation is refused with the caller's sentinel.
func TestQueryCodecRoundTrip(t *testing.T) {
	queries := []Query{
		{},
		{StartBlock: 3, EndBlock: 9, Bool: CNF{KeywordClause("sedan"), KeywordClause("benz", "bmw")}, Width: 4},
		{EndBlock: 1 << 40, Range: &RangeCond{Lo: []int64{-1, 0}, Hi: []int64{7, 1 << 62}}},
		{StartBlock: -5, Range: &RangeCond{}},
	}
	tail := []byte{0xAA, 0xBB}
	encQuery := func(q Query) []byte {
		var w wire.Writer
		WriteQuery(&w, q)
		return w.Buf
	}
	for i, q := range queries {
		enc := encQuery(q)
		r := wire.NewReader(append(enc, tail...), errTestDecode)
		back := ReadQuery(r)
		if err := r.Err(); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if rest := r.Rest(); !bytes.Equal(rest, tail) {
			t.Fatalf("query %d: rest %x, want %x", i, rest, tail)
		}
		if !bytes.Equal(encQuery(back), enc) || back.StartBlock != q.StartBlock || back.EndBlock != q.EndBlock ||
			back.Width != q.Width || len(back.Bool) != len(q.Bool) || (back.Range == nil) != (q.Range == nil) {
			t.Fatalf("query %d: %+v round-trips to %+v", i, q, back)
		}
		for n := range enc {
			r := wire.NewReader(enc[:n], errTestDecode)
			if ReadQuery(r); !errors.Is(r.Err(), errTestDecode) {
				t.Fatalf("query %d truncated to %d bytes: %v, want the sentinel", i, n, r.Err())
			}
		}
	}

	readGaps := func(b []byte) ([]Gap, *wire.Reader) {
		r := wire.NewReader(b, errTestDecode)
		return ReadGaps(r), r
	}
	gaps := []Gap{{Start: 9, End: 9}, {Start: 1, End: 7}}
	var w wire.Writer
	WriteGaps(&w, gaps)
	enc := w.Buf
	back, r := readGaps(append(enc, tail...))
	if err := r.Err(); err != nil || !reflect.DeepEqual(back, gaps) || !bytes.Equal(r.Rest(), tail) {
		t.Fatalf("gaps round-trip to %v, %v", back, err)
	}
	w = wire.Writer{}
	WriteGaps(&w, nil)
	if back, r := readGaps(w.Buf); r.Done() != nil || back != nil {
		t.Fatalf("no gaps round-trip to %v, %v", back, r.Err())
	}
	for n := range enc {
		if _, r := readGaps(enc[:n]); !errors.Is(r.Err(), errTestDecode) {
			t.Fatalf("gaps truncated to %d bytes: %v, want the sentinel", n, r.Err())
		}
	}
	// A forged count is refused before it is allocated.
	if _, r := readGaps([]byte{0xFF, 0xFF, 0xFF, 0xFF}); !errors.Is(r.Err(), errTestDecode) {
		t.Fatalf("forged gap count: %v", r.Err())
	}
}
