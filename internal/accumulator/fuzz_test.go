package accumulator

import (
	"bytes"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/multiset"
)

// FuzzAccDecode drives AccFromBytes / ProofFromBytes of both
// constructions with arbitrary bytes: the decoders must never panic,
// every accepted value must consist of on-curve points (the validation
// the verifier relies on), and accepted encodings must round-trip
// byte-identically (canonicality).
func FuzzAccDecode(f *testing.F) {
	pr := pairing.Toy()
	acc1 := KeyGenCon1Deterministic(pr, 16, []byte("fuzz"))
	acc2 := KeyGenCon2Deterministic(pr, 64, HashEncoder{Q: 64}, []byte("fuzz"))

	w := multiset.New("fuzz-a", "fuzz-b")
	cl := multiset.New("fuzz-c")
	for _, acc := range []Accumulator{acc1, acc2} {
		aw, err := acc.Setup(w)
		if err != nil {
			f.Fatal(err)
		}
		pf, err := acc.ProveDisjoint(w, cl)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(acc.AccBytes(aw))
		f.Add(acc.ProofBytes(pf))
	}
	f.Add([]byte{0})
	f.Add([]byte{0, 0})
	f.Add([]byte{1})
	f.Add(bytes.Repeat([]byte{0xff}, 65))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, acc := range []Accumulator{Accumulator(acc1), Accumulator(acc2)} {
			if a, err := acc.AccFromBytes(data); err == nil {
				if !acc.ValidateAcc(a) {
					t.Fatalf("%s: decoder accepted off-curve acc %x", acc.Name(), data)
				}
				if re := acc.AccBytes(a); !bytes.Equal(re, data) {
					t.Fatalf("%s: acc encoding not canonical: %x -> %x", acc.Name(), data, re)
				}
			}
			if p, err := acc.ProofFromBytes(data); err == nil {
				if !acc.ValidateProof(p) {
					t.Fatalf("%s: decoder accepted off-curve proof %x", acc.Name(), data)
				}
				if re := acc.ProofBytes(p); !bytes.Equal(re, data) {
					t.Fatalf("%s: proof encoding not canonical: %x -> %x", acc.Name(), data, re)
				}
			}
		}
	})
}

// FuzzAccUnion checks Construction 2's UnionEach against Setup of each
// union on arbitrary batches of multiset pairs: each input byte adds
// one occurrence of one of eight elements to the current pair's x1
// (high bit clear) or x2 (high bit set), except that a byte with bits
// 3–6 all set closes the pair and starts the next. The encoder's
// domain of four values makes distinct elements collide.
func FuzzAccUnion(f *testing.F) {
	acc := KeyGenCon2Deterministic(pairing.Toy(), 5, HashEncoder{Q: 5}, []byte("fuzz"))
	f.Add([]byte{0, 1, 0x80, 0x81})
	f.Add([]byte{0, 0, 1, 0x80})
	f.Add([]byte{2, 3, 0x84, 0x85})
	f.Add([]byte{0, 1, 0x80, 0x78, 0, 0, 0x80, 0x80, 0x78, 0x78, 2, 0x85})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		pairs := [][2]multiset.Multiset{{{}, {}}}
		for _, b := range data {
			if b&0x78 == 0x78 {
				pairs = append(pairs, [2]multiset.Multiset{{}, {}})
				continue
			}
			e := "e" + string(rune('0'+b&7))
			x := &pairs[len(pairs)-1][b>>7]
			*x = multiset.Sum(*x, multiset.New(e))
		}
		checkUnionEach(t, acc, pairs)
	})
}
