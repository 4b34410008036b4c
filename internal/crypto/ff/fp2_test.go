package ff

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func testExt(t *testing.T) *Ext {
	t.Helper()
	return NewExt(NewField(testPrime))
}

func randElt2(x *Ext, rng *rand.Rand) Elt2 {
	return Elt2{
		A: x.Base.NewElt(new(big.Int).Rand(rng, x.Base.P)),
		B: x.Base.NewElt(new(big.Int).Rand(rng, x.Base.P)),
	}
}

func TestExtISquaredIsMinusOne(t *testing.T) {
	x := testExt(t)
	got := x.Square(x.I())
	want := x.Neg(x.One())
	if !got.Equal(want) {
		t.Errorf("i² = %v, want -1", got)
	}
}

func TestExtFieldAxiomsQuick(t *testing.T) {
	x := testExt(t)
	rng := rand.New(rand.NewSource(2))
	err := quick.Check(func(seed int64) bool {
		a, b, c := randElt2(x, rng), randElt2(x, rng), randElt2(x, rng)
		if !x.Mul(a, b).Equal(x.Mul(b, a)) {
			return false
		}
		if !x.Mul(x.Mul(a, b), c).Equal(x.Mul(a, x.Mul(b, c))) {
			return false
		}
		lhs := x.Mul(a, x.Add(b, c))
		rhs := x.Add(x.Mul(a, b), x.Mul(a, c))
		if !lhs.Equal(rhs) {
			return false
		}
		return x.Square(a).Equal(x.Mul(a, a))
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

func TestExtInverse(t *testing.T) {
	x := testExt(t)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		a := randElt2(x, rng)
		if a.IsZero() {
			continue
		}
		if !x.Mul(a, x.Inv(a)).Equal(x.One()) {
			t.Fatalf("a·a⁻¹ != 1 for %v", a)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Inv(0) should panic")
		}
	}()
	x.Inv(x.Zero())
}

func TestExtConjIsFrobenius(t *testing.T) {
	x := testExt(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		a := randElt2(x, rng)
		if !x.Conj(a).Equal(x.Exp(a, x.Base.P)) {
			t.Fatalf("conj != a^p for %v", a)
		}
	}
}

func TestExtNormMultiplicative(t *testing.T) {
	x := testExt(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		a, b := randElt2(x, rng), randElt2(x, rng)
		lhs := x.Norm(x.Mul(a, b))
		rhs := x.Base.Mul(x.Norm(a), x.Norm(b))
		if !lhs.Equal(rhs) {
			t.Fatal("norm not multiplicative")
		}
	}
}

func TestExtExpLawsAndGroupOrder(t *testing.T) {
	x := testExt(t)
	rng := rand.New(rand.NewSource(6))
	order := new(big.Int).Mul(x.Base.P, x.Base.P)
	order.Sub(order, big.NewInt(1)) // |F_p²*| = p²-1
	for i := 0; i < 10; i++ {
		a := randElt2(x, rng)
		if a.IsZero() {
			continue
		}
		if !x.Exp(a, order).Equal(x.One()) {
			t.Fatal("a^(p²-1) != 1")
		}
		k1, k2 := big.NewInt(13), big.NewInt(29)
		lhs := x.Mul(x.Exp(a, k1), x.Exp(a, k2))
		rhs := x.Exp(a, new(big.Int).Add(k1, k2))
		if !lhs.Equal(rhs) {
			t.Fatal("a^13 · a^29 != a^42")
		}
	}
}

func TestCubeRootOfUnity(t *testing.T) {
	x := testExt(t) // 1019 ≡ 2 (mod 3)
	zeta := x.CubeRootOfUnity()
	one := x.One()
	if zeta.Equal(one) {
		t.Fatal("ζ is trivial")
	}
	if !x.Mul(x.Mul(zeta, zeta), zeta).Equal(one) {
		t.Fatal("ζ³ != 1")
	}
	// ζ² + ζ + 1 = 0 characterizes a primitive cube root.
	sum := x.Add(x.Add(x.Square(zeta), zeta), one)
	if !sum.IsZero() {
		t.Fatal("ζ²+ζ+1 != 0")
	}
}

func TestCubeRootOfUnityRejectsWrongModulus(t *testing.T) {
	// 7 ≡ 1 (mod 3): cube roots exist already in F_p, helper must refuse.
	x := NewExt(NewField(big.NewInt(7)))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for p ≡ 1 (mod 3)")
		}
	}()
	x.CubeRootOfUnity()
}
