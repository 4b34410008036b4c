package ff_test

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/ff"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
)

// fuzzModuli are the moduli FuzzFieldOps checks every input against: one
// limb (1019), two limbs (2¹²⁷−1), eight limbs (the default preset's p),
// and three whose top bit is set, where a sum or a Montgomery product
// can carry out of the limbs: 2¹²⁸−173 at two limbs, and at eight the
// two topBitPrimes, one either side of the assembly kernel's bound.
func fuzzModuli() []*big.Int {
	pow2 := func(k uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), k) }
	return []*big.Int{
		big.NewInt(1019),
		new(big.Int).Sub(pow2(127), big.NewInt(1)),
		pairing.Default().F.P,
		new(big.Int).Sub(pow2(128), big.NewInt(173)),
		topBitPrimes()[0],
		topBitPrimes()[1],
	}
}

// FuzzFieldOps is a differential test of the limb field against a
// math/big reference: every operation on elements built from the fuzzed
// integers must agree with the same operation on the integers mod p,
// at 1, 2 and 8 limbs, and Mul must agree limb for limb with the
// generic product wherever it runs the assembly kernel.
func FuzzFieldOps(f *testing.F) {
	ones := bytes.Repeat([]byte{0xff}, 64) // sets the top limb at every width
	for _, p := range fuzzModuli() {
		pm1 := new(big.Int).Sub(p, big.NewInt(1)).Bytes()
		f.Add([]byte{}, []byte{1}, []byte{})
		f.Add(pm1, pm1, pm1)
		f.Add([]byte{1}, pm1, []byte{2})
		f.Add(ones, ones[:8], ones[:16])
	}
	var fields []*ff.Field
	for _, p := range fuzzModuli() {
		fields = append(fields, ff.NewField(p))
	}
	f.Fuzz(func(t *testing.T, a, b, k []byte) {
		if len(a) > 128 || len(b) > 128 || len(k) > 16 {
			return
		}
		for _, fld := range fields {
			checkFieldOps(t, fld, a, b, k)
		}
	})
}

func checkFieldOps(t *testing.T, f *ff.Field, a, b, k []byte) {
	p := f.P
	mod := func(v *big.Int) *big.Int { return v.Mod(v, p) }
	ai, bi := mod(new(big.Int).SetBytes(a)), mod(new(big.Int).SetBytes(b))
	x, y := f.Reduce(a), f.Reduce(b)
	want := func(op string, got ff.Elt, w *big.Int) {
		t.Helper()
		if g := new(big.Int).SetBytes(f.Bytes(got)); g.Cmp(w) != 0 {
			t.Fatalf("p=%v: %s(%v, %v) = %v, want %v", p, op, ai, bi, g, w)
		}
	}

	want("id", x, ai)
	want("Add", f.Add(x, y), mod(new(big.Int).Add(ai, bi)))
	want("Sub", f.Sub(x, y), mod(new(big.Int).Sub(ai, bi)))
	want("Neg", f.Neg(x), mod(new(big.Int).Neg(ai)))
	want("Mul", f.Mul(x, y), mod(new(big.Int).Mul(ai, bi)))
	want("Square", f.Square(x), mod(new(big.Int).Mul(ai, ai)))
	if g := f.Generic().Mul(x, y); !f.Mul(x, y).Equal(g) {
		t.Fatalf("p=%v: Mul(%v, %v) differs from the generic product", p, ai, bi)
	}
	ki := new(big.Int).SetBytes(k)
	want("Exp", f.Exp(x, ki), new(big.Int).Exp(ai, ki, p))
	var k8 [8]byte
	copy(k8[:], k)
	v := int64(binary.BigEndian.Uint64(k8[:]))
	want("FromInt64", f.FromInt64(v), mod(big.NewInt(v)))
	if ai.Sign() != 0 {
		inv := new(big.Int).ModInverse(ai, p)
		want("Inv", f.Inv(x), inv)
	} else if !panics(func() { f.Inv(x) }) {
		t.Fatalf("p=%v: Inv(0) did not panic", p)
	}

	jac := big.Jacobi(ai, p)
	if r, ok := f.Sqrt(x); ok != (jac >= 0) {
		t.Fatalf("p=%v: Sqrt(%v) ok=%v, Jacobi %d", p, ai, ok, jac)
	} else if ok {
		want("Sqrt²", f.Square(r), ai)
	}

	enc := f.Bytes(x)
	if len(enc) != (p.BitLen()+7)/8 {
		t.Fatalf("p=%v: Bytes width %d", p, len(enc))
	}
	back, err := f.EltFromBytes(enc)
	if err != nil || !back.Equal(x) {
		t.Fatalf("p=%v: Bytes round trip of %v: %v", p, ai, err)
	}
	if raw := new(big.Int).SetBytes(a); raw.Cmp(p) >= 0 {
		if _, err := f.EltFromBytes(a); err == nil {
			t.Fatalf("p=%v: EltFromBytes accepted %v ≥ p", p, raw)
		}
	}

	if dec := ff.EltFromLimbs(x.Limbs()); !dec.Equal(x) || !f.InField(dec) {
		t.Fatalf("p=%v: limb round trip of %v", p, ai)
	}
	// Raw limbs are not reduced: InField must hold exactly when the
	// little-endian integer they spell is below p.
	var limbs [8]uint64
	for i := 0; i < len(a) && i < 64; i++ {
		limbs[i/8] |= uint64(a[i]) << (8 * (i % 8))
	}
	le := make([]byte, min(len(a), 64))
	for i := range le {
		le[len(le)-1-i] = a[i]
	}
	if in := new(big.Int).SetBytes(le).Cmp(p) < 0; f.InField(ff.EltFromLimbs(limbs)) != in {
		t.Fatalf("p=%v: InField(limbs %x) = %v, want %v", p, le, !in, in)
	}
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}
