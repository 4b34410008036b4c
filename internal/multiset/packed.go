package multiset

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"strings"
)

// Packed is a Multiset in one string, for multisets that are kept long
// and read rarely: its entry count, then per entry in order its
// element's length and its count, all as uvarints, each entry followed
// by its element's bytes. An Entry alone takes 24 bytes beside its
// element's, so a block's multiset of short elements packs into about
// a third of its memory.
type Packed string

// Pack returns m packed.
func Pack(m Multiset) Packed {
	n := uvarintLen(uint64(len(m)))
	for _, e := range m {
		n += uvarintLen(uint64(len(e.Elem))) + uvarintLen(uint64(e.Count)) + len(e.Elem)
	}
	var b strings.Builder
	b.Grow(n)
	var buf [binary.MaxVarintLen64]byte
	put := func(x uint64) { b.Write(binary.AppendUvarint(buf[:0], x)) }
	put(uint64(len(m)))
	for _, e := range m {
		put(uint64(len(e.Elem)))
		put(uint64(e.Count))
		b.WriteString(e.Elem)
	}
	return Packed(b.String())
}

// AppendTo appends the entries of p to dst and returns the extended
// slice. Their elements are substrings of p, so they copy nothing.
func (p Packed) AppendTo(dst Multiset) Multiset {
	s := string(p)
	if s == "" {
		return dst
	}
	n, s := uvarint(s)
	dst = slices.Grow(dst, int(n))
	for range n {
		var l, c uint64
		l, s = uvarint(s)
		c, s = uvarint(s)
		dst = append(dst, Entry{Elem: s[:l], Count: int(c)})
		s = s[l:]
	}
	return dst
}

// Unpack returns p as a Multiset.
func (p Packed) Unpack() Multiset { return p.AppendTo(nil) }

// uvarint reads the uvarint at the front of s, which Pack wrote.
func uvarint(s string) (uint64, string) {
	var x uint64
	for sh := 0; ; sh += 7 {
		c := s[0]
		s = s[1:]
		x |= uint64(c&0x7f) << sh
		if c < 0x80 {
			return x, s
		}
	}
}

// uvarintLen returns the length of x's uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
