package chain

import (
	"errors"
	"testing"
)

func testObject(id uint64) Object {
	return Object{ID: ObjectID(id), TS: int64(100 + id), V: []int64{int64(id), 7}, W: []string{"a", "b"}}
}

func mineBlock(t *testing.T, s *Store, objs []Object, ts int64) *Block {
	t.Helper()
	h := Header{Height: uint64(s.Height()), TS: ts}
	if tip := s.Tip(); tip != nil {
		h.PrevHash = tip.Header.Hash()
	}
	h.MerkleRoot = Digest{1} // content binding tested in core; here linkage/PoW only
	solved, err := SolvePoW(h, s.Difficulty())
	if err != nil {
		t.Fatal(err)
	}
	b := &Block{Header: solved, Objects: objs}
	if err := s.Append(b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestObjectBytesInjective(t *testing.T) {
	a := Object{ID: 1, TS: 2, V: []int64{3}, W: []string{"ab", "c"}}
	b := Object{ID: 1, TS: 2, V: []int64{3}, W: []string{"a", "bc"}}
	if a.Hash() == b.Hash() {
		t.Fatal("length-prefixing failed: distinct objects share a hash")
	}
	c := a.Clone()
	if c.Hash() != a.Hash() {
		t.Fatal("clone hash differs")
	}
	c.W[0] = "zz"
	if a.W[0] == "zz" {
		t.Fatal("clone aliases original")
	}
}

func TestDifficultyMeets(t *testing.T) {
	zero := Digest{}
	if !Difficulty(16).Meets(zero) {
		t.Error("zero digest should meet any difficulty")
	}
	var d Digest
	d[0] = 0x80
	if Difficulty(1).Meets(d) {
		t.Error("leading 1 bit should fail difficulty 1")
	}
	if !Difficulty(0).Meets(d) {
		t.Error("difficulty 0 accepts everything")
	}
	d[0] = 0x01 // 7 leading zeros
	if !Difficulty(7).Meets(d) || Difficulty(8).Meets(d) {
		t.Error("bit boundary wrong")
	}
}

func TestSolvePoW(t *testing.T) {
	h := Header{Height: 3, TS: 42}
	solved, err := SolvePoW(h, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !Difficulty(8).Meets(solved.Hash()) {
		t.Fatal("solved header does not meet difficulty")
	}
}

func TestStoreAppendAndLinkage(t *testing.T) {
	s := NewStore(4)
	b0 := mineBlock(t, s, []Object{testObject(1)}, 100)
	b1 := mineBlock(t, s, []Object{testObject(2)}, 200)
	if s.Height() != 2 {
		t.Fatalf("height %d", s.Height())
	}
	got, err := s.BlockAt(0)
	if err != nil || got != b0 {
		t.Fatal("BlockAt(0) wrong")
	}
	if s.Tip() != b1 {
		t.Fatal("Tip wrong")
	}
	if _, err := s.BlockAt(5); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing height should be ErrNotFound")
	}
}

func TestStoreRejectsBadBlocks(t *testing.T) {
	s := NewStore(4)
	mineBlock(t, s, nil, 100)

	// Wrong height.
	h := Header{Height: 5, TS: 200, PrevHash: s.Tip().Header.Hash()}
	h, _ = SolvePoW(h, 4)
	if err := s.Append(&Block{Header: h}); err == nil {
		t.Error("wrong height accepted")
	}
	// Broken linkage.
	h2 := Header{Height: 1, TS: 200, PrevHash: Digest{0xAB}}
	h2, _ = SolvePoW(h2, 4)
	if err := s.Append(&Block{Header: h2}); err == nil {
		t.Error("broken linkage accepted")
	}
	// Timestamp regression.
	h3 := Header{Height: 1, TS: 50, PrevHash: s.Tip().Header.Hash()}
	h3, _ = SolvePoW(h3, 4)
	if err := s.Append(&Block{Header: h3}); err == nil {
		t.Error("timestamp regression accepted")
	}
	// Missing PoW.
	h4 := Header{Height: 1, TS: 300, PrevHash: s.Tip().Header.Hash()}
	for Difficulty(4).Meets(h4.Hash()) {
		h4.Nonce++ // find a non-solving nonce
	}
	if err := s.Append(&Block{Header: h4}); err == nil {
		t.Error("missing PoW accepted")
	}
	// Non-genesis PrevHash on genesis.
	s2 := NewStore(0)
	g := Header{Height: 0, PrevHash: Digest{1}}
	if err := s2.Append(&Block{Header: g}); err == nil {
		t.Error("bad genesis accepted")
	}
}

func TestLightStoreSync(t *testing.T) {
	s := NewStore(4)
	for i := 0; i < 5; i++ {
		mineBlock(t, s, []Object{testObject(uint64(i))}, int64(100+i))
	}
	l := NewLightStore(4)
	if err := l.Sync(s.Headers()); err != nil {
		t.Fatal(err)
	}
	if l.Height() != 5 {
		t.Fatalf("light height %d", l.Height())
	}
	h2, err := l.HeaderAt(2)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := s.BlockAt(2)
	if h2.Hash() != want.Header.Hash() {
		t.Fatal("header mismatch")
	}
	// Re-sync is idempotent.
	if err := l.Sync(s.Headers()); err != nil {
		t.Fatal(err)
	}
	if l.Height() != 5 {
		t.Fatal("re-sync changed height")
	}
	if _, err := l.HeaderAt(99); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing header should be ErrNotFound")
	}
}

func TestLightStoreRejectsTamperedHeaders(t *testing.T) {
	s := NewStore(4)
	for i := 0; i < 3; i++ {
		mineBlock(t, s, nil, int64(100+i))
	}
	headers := s.Headers()
	headers[1].MerkleRoot = Digest{0xFF} // tamper: breaks both PoW and linkage
	l := NewLightStore(4)
	if err := l.Sync(headers); err == nil {
		t.Fatal("tampered header chain accepted by light node")
	}
}

func TestHeaderSizeBits(t *testing.T) {
	plain := Header{}
	withSkip := Header{SkipListRoot: Digest{1}}
	if plain.SizeBits() >= withSkip.SizeBits() {
		t.Error("skip-list commitment should enlarge the header")
	}
	if diff := withSkip.SizeBits() - plain.SizeBits(); diff != 256 {
		t.Errorf("skip root adds %d bits, want 256", diff)
	}
}

func TestHeaderBytesRoundTrip(t *testing.T) {
	h := Header{Height: 7, PrevHash: Digest{1, 2}, TS: -3, Nonce: 1 << 40,
		MerkleRoot: Digest{31: 9}, SkipListRoot: Digest{5}}
	b := h.Bytes()
	if len(b) != HeaderSize {
		t.Fatalf("encoding is %d bytes, want HeaderSize %d", len(b), HeaderSize)
	}
	back, err := HeaderFromBytes(b)
	if err != nil || back != h {
		t.Fatalf("round trip = %+v, %v; want %+v", back, err, h)
	}
	for _, n := range []int{0, HeaderSize - 1, HeaderSize + 1} {
		if _, err := HeaderFromBytes(make([]byte, n)); err == nil {
			t.Errorf("%d-byte header accepted", n)
		}
	}
}

func TestLightStoreSizeBits(t *testing.T) {
	l := NewLightStore(0)
	if err := l.Sync([]Header{{Height: 0}}); err != nil {
		t.Fatal(err)
	}
	if l.SizeBits() == 0 {
		t.Error("size should be positive after sync")
	}
}
