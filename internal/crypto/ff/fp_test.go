package ff

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// testPrime is a small prime with p ≡ 3 (mod 4) and p ≡ 2 (mod 3),
// matching the pairing parameter constraints.
var testPrime = big.NewInt(1019)

// bigTestPrime is a 127-bit Mersenne prime: 2^127-1 ≡ 3 (mod 4) and
// ≡ 1 (mod 3), fine for pure F_p tests that do not need cube roots.
var bigTestPrime = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 127), big.NewInt(1))

func testField(t *testing.T) *Field {
	t.Helper()
	return NewField(testPrime)
}

func TestNewFieldRejectsBadModulus(t *testing.T) {
	for _, bad := range []int64{0, -7, 4, 13} { // 13 ≡ 1 mod 4
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewField(%d) should panic", bad)
				}
			}()
			NewField(big.NewInt(bad))
		}()
	}
}

func TestFieldBasicIdentities(t *testing.T) {
	f := testField(t)
	a := f.FromInt64(123)
	b := f.FromInt64(456)

	if !f.Add(a, f.Zero()).Equal(a) {
		t.Error("a+0 != a")
	}
	if !f.Mul(a, f.One()).Equal(a) {
		t.Error("a·1 != a")
	}
	if !f.Add(a, f.Neg(a)).IsZero() {
		t.Error("a + (-a) != 0")
	}
	if !f.Mul(a, f.Inv(a)).Equal(f.One()) {
		t.Error("a·a⁻¹ != 1")
	}
	if !f.Sub(a, b).Equal(f.Add(a, f.Neg(b))) {
		t.Error("a-b != a+(-b)")
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	f := NewField(bigTestPrime)
	rng := rand.New(rand.NewSource(1))
	elt := func() Elt {
		return f.NewElt(new(big.Int).Rand(rng, f.P))
	}
	// Commutativity, associativity, distributivity.
	err := quick.Check(func(seed int64) bool {
		a, b, c := elt(), elt(), elt()
		if !f.Add(a, b).Equal(f.Add(b, a)) {
			return false
		}
		if !f.Mul(a, b).Equal(f.Mul(b, a)) {
			return false
		}
		if !f.Add(f.Add(a, b), c).Equal(f.Add(a, f.Add(b, c))) {
			return false
		}
		if !f.Mul(f.Mul(a, b), c).Equal(f.Mul(a, f.Mul(b, c))) {
			return false
		}
		lhs := f.Mul(a, f.Add(b, c))
		rhs := f.Add(f.Mul(a, b), f.Mul(a, c))
		return lhs.Equal(rhs)
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestFieldSquareMatchesMul(t *testing.T) {
	f := testField(t)
	for i := int64(0); i < 50; i++ {
		a := f.FromInt64(i * 37)
		if !f.Square(a).Equal(f.Mul(a, a)) {
			t.Fatalf("square mismatch at %d", i)
		}
	}
}

func TestFieldExp(t *testing.T) {
	f := testField(t)
	a := f.FromInt64(7)
	got := f.Exp(a, big.NewInt(5))
	want := f.FromInt64(7 * 7 * 7 * 7 * 7)
	if !got.Equal(want) {
		t.Errorf("7^5: got %v want %v", got, want)
	}
	// Fermat: a^(p-1) = 1.
	pm1 := new(big.Int).Sub(f.P, big.NewInt(1))
	if !f.Exp(a, pm1).Equal(f.One()) {
		t.Error("a^(p-1) != 1")
	}
	// Negative exponent inverts.
	if !f.Mul(f.Exp(a, big.NewInt(-3)), f.Exp(a, big.NewInt(3))).Equal(f.One()) {
		t.Error("a^-3 · a^3 != 1")
	}
}

func TestLegendreAndSqrt(t *testing.T) {
	f := testField(t)
	nResidues := 0
	for i := int64(1); i < 200; i++ {
		a := f.FromInt64(i)
		r, ok := f.Sqrt(a)
		if big.Jacobi(big.NewInt(i), f.P) == 1 {
			nResidues++
			if !ok {
				t.Fatalf("residue %d has no sqrt", i)
			}
			if !f.Square(r).Equal(a) {
				t.Fatalf("sqrt(%d)² != %d", i, i)
			}
		} else if ok && !a.IsZero() {
			t.Fatalf("non-residue %d returned a sqrt", i)
		}
	}
	if nResidues == 0 {
		t.Fatal("no residues found, test broken")
	}
}

func TestInvZeroPanics(t *testing.T) {
	f := testField(t)
	defer func() {
		if recover() == nil {
			t.Error("Inv(0) should panic")
		}
	}()
	f.Inv(f.Zero())
}

func TestBytesRoundTrip(t *testing.T) {
	f := NewField(bigTestPrime)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 32; i++ {
		a := f.NewElt(new(big.Int).Rand(rng, f.P))
		b := f.Bytes(a)
		if len(b) != (f.P.BitLen()+7)/8 {
			t.Fatalf("encoding width %d", len(b))
		}
		back, err := f.EltFromBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(a) {
			t.Fatal("round trip mismatch")
		}
	}
	// Non-canonical (≥ p) encodings must be rejected.
	if _, err := f.EltFromBytes(f.P.Bytes()); err == nil {
		t.Error("encoding of p accepted")
	}
}

func TestEltZeroValueUsable(t *testing.T) {
	f := testField(t)
	var e Elt // zero value must behave as 0
	if !e.IsZero() {
		t.Error("zero-value Elt not zero")
	}
	if !f.Add(e, f.One()).Equal(f.One()) {
		t.Error("0+1 != 1 with zero-value Elt")
	}
}
