package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// TestQueryCodecRoundTrip: queries and gap lists survive their wire
// encodings, bytes after them are handed back untouched, and every
// truncation is refused with ErrWireDecode.
func TestQueryCodecRoundTrip(t *testing.T) {
	queries := []Query{
		{},
		{StartBlock: 3, EndBlock: 9, Bool: CNF{KeywordClause("sedan"), KeywordClause("benz", "bmw")}, Width: 4},
		{EndBlock: 1 << 40, Range: &RangeCond{Lo: []int64{-1, 0}, Hi: []int64{7, 1 << 62}}},
		{StartBlock: -5, Range: &RangeCond{}},
	}
	tail := []byte{0xAA, 0xBB}
	for i, q := range queries {
		enc := AppendQuery(nil, q)
		back, rest, err := ReadQuery(append(enc, tail...))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !bytes.Equal(rest, tail) {
			t.Fatalf("query %d: rest %x, want %x", i, rest, tail)
		}
		if !bytes.Equal(AppendQuery(nil, back), enc) || back.StartBlock != q.StartBlock || back.EndBlock != q.EndBlock ||
			back.Width != q.Width || len(back.Bool) != len(q.Bool) || (back.Range == nil) != (q.Range == nil) {
			t.Fatalf("query %d: %+v round-trips to %+v", i, q, back)
		}
		for n := range enc {
			if _, _, err := ReadQuery(enc[:n]); !errors.Is(err, ErrWireDecode) {
				t.Fatalf("query %d truncated to %d bytes: %v, want ErrWireDecode", i, n, err)
			}
		}
	}

	gaps := []Gap{{Start: 9, End: 9}, {Start: 1, End: 7}}
	enc := AppendGaps(nil, gaps)
	back, rest, err := ReadGaps(append(enc, tail...))
	if err != nil || !reflect.DeepEqual(back, gaps) || !bytes.Equal(rest, tail) {
		t.Fatalf("gaps round-trip to %v, rest %x, %v", back, rest, err)
	}
	if back, _, err := ReadGaps(AppendGaps(nil, nil)); err != nil || back != nil {
		t.Fatalf("no gaps round-trip to %v, %v", back, err)
	}
	for n := range enc {
		if _, _, err := ReadGaps(enc[:n]); !errors.Is(err, ErrWireDecode) {
			t.Fatalf("gaps truncated to %d bytes: %v, want ErrWireDecode", n, err)
		}
	}
	// A forged count is refused before it is allocated.
	if _, _, err := ReadGaps([]byte{0xFF, 0xFF, 0xFF, 0xFF}); !errors.Is(err, ErrWireDecode) {
		t.Fatalf("forged gap count: %v", err)
	}
}
