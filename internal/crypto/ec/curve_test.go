package ec

import (
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/ff"
)

// 1019 ≡ 2 (mod 3), ≡ 3 (mod 4). #E(F_1019) = 1020 = 2²·3·5·17.
var testP = big.NewInt(1019)

func testCurve(t *testing.T) *Curve {
	t.Helper()
	return NewCurve(ff.NewField(testP))
}

func sha(b []byte) []byte {
	h := sha256.Sum256(b)
	return h[:]
}

func findPoint(t testing.TB, c *Curve) Point {
	t.Helper()
	f := c.F
	for i := int64(1); i < 200; i++ { // skip x=0: distortion map fixes it
		x := f.FromInt64(i)
		rhs := f.Add(f.Mul(f.Square(x), x), f.One())
		if y, ok := f.Sqrt(rhs); ok {
			p, err := c.NewPoint(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if !p.Inf && !p.Y.IsZero() {
				return p
			}
		}
	}
	t.Fatal("no affine point found")
	return Point{}
}

func TestNewCurveRejectsWrongModulus(t *testing.T) {
	// 7 ≡ 1 (mod 3): not supersingular for this curve.
	defer func() {
		if recover() == nil {
			t.Error("expected panic for p ≡ 1 (mod 3)")
		}
	}()
	NewCurve(ff.NewField(big.NewInt(7)))
}

func TestGroupLaws(t *testing.T) {
	c := testCurve(t)
	p := findPoint(t, c)
	q := c.Double(p)
	r := c.Add(q, p) // 3p

	if !c.IsOnCurve(q) || !c.IsOnCurve(r) {
		t.Fatal("derived points off curve")
	}
	// Identity.
	if !c.Add(p, c.Infinity()).Equal(p) {
		t.Error("p + ∞ != p")
	}
	// Inverse.
	if !c.Add(p, c.Neg(p)).Equal(c.Infinity()) {
		t.Error("p + (-p) != ∞")
	}
	// Commutativity.
	if !c.Add(p, q).Equal(c.Add(q, p)) {
		t.Error("p+q != q+p")
	}
	// Associativity.
	lhs := c.Add(c.Add(p, q), r)
	rhs := c.Add(p, c.Add(q, r))
	if !lhs.Equal(rhs) {
		t.Error("(p+q)+r != p+(q+r)")
	}
}

func TestScalarMulMatchesRepeatedAdd(t *testing.T) {
	c := testCurve(t)
	p := findPoint(t, c)
	acc := c.Infinity()
	for k := int64(0); k <= 20; k++ {
		got := c.ScalarMul(p, big.NewInt(k))
		if !got.Equal(acc) {
			t.Fatalf("k=%d: scalar mul disagrees with repeated addition", k)
		}
		acc = c.Add(acc, p)
	}
	// Negative scalar.
	if !c.ScalarMul(p, big.NewInt(-5)).Equal(c.Neg(c.ScalarMul(p, big.NewInt(5)))) {
		t.Error("(-5)p != -(5p)")
	}
}

func TestCurveOrderAnnihilates(t *testing.T) {
	c := testCurve(t)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10; i++ {
		p := c.HashToPoint([]byte{byte(i), byte(rng.Intn(256))}, sha)
		if !c.IsOnCurve(p) {
			t.Fatal("hashed point off curve")
		}
		if !c.ScalarMul(p, c.Order).Equal(c.Infinity()) {
			t.Fatalf("(p+1)·P != ∞ for point %d", i)
		}
	}
}

func TestNewPointRejectsOffCurve(t *testing.T) {
	c := testCurve(t)
	f := c.F
	// Find an (x, y) that is off-curve.
	for i := int64(0); i < 50; i++ {
		x, y := f.FromInt64(i), f.FromInt64(i+1)
		rhs := f.Add(f.Mul(f.Square(x), x), f.One())
		if !f.Square(y).Equal(rhs) {
			if _, err := c.NewPoint(x, y); err == nil {
				t.Fatal("off-curve point accepted")
			}
			return
		}
	}
	t.Skip("could not find off-curve pair (improbable)")
}

func TestPointBytesRoundTrip(t *testing.T) {
	c := testCurve(t)
	p := findPoint(t, c)
	for _, pt := range []Point{p, c.Double(p), c.Infinity()} {
		back, err := c.PointFromBytes(c.Bytes(pt))
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(pt) {
			t.Fatal("round trip mismatch")
		}
	}
	if _, err := c.PointFromBytes(nil); err == nil {
		t.Error("empty encoding accepted")
	}
	if _, err := c.PointFromBytes([]byte{1, 2}); err == nil {
		t.Error("truncated encoding accepted")
	}
}

func TestHashToPointDeterministic(t *testing.T) {
	c := testCurve(t)
	a := c.HashToPoint([]byte("vchain"), sha)
	b := c.HashToPoint([]byte("vchain"), sha)
	if !a.Equal(b) {
		t.Error("hash-to-point not deterministic")
	}
	d := c.HashToPoint([]byte("other"), sha)
	if a.Equal(d) {
		t.Error("distinct messages hashed to the same point (collision)")
	}
}

func TestCurve2GroupLaws(t *testing.T) {
	f := ff.NewField(testP)
	c := NewCurve(f)
	c2 := NewCurve2(ff.NewExt(f))
	p := findPointT(t, c)
	lp := Point2{X: c2.X.FromBase(p.X), Y: c2.X.FromBase(p.Y)} // p lifted into E(F_p²)
	if !c2.IsOnCurve(lp) {
		t.Fatal("lifted point off curve")
	}
	dp := c2.Distort(p)
	if !c2.IsOnCurve(dp) {
		t.Fatal("distorted point off curve")
	}
	if dp.Equal(lp) {
		t.Fatal("distortion map is identity (ζ trivial?)")
	}
	q := c2.Double(dp)
	if !c2.IsOnCurve(q) {
		t.Fatal("doubled point off curve")
	}
	if !c2.Add(dp, c2.Neg(dp)).Equal(c2.Infinity()) {
		t.Error("p + (-p) != ∞ on E(F_p²)")
	}
	// Distortion commutes with scalar multiplication: φ(kP) = kφ(P).
	k := big.NewInt(7)
	lhs := c2.Distort(c.ScalarMul(p, k))
	rhs := c2.ScalarMul(dp, k)
	if !lhs.Equal(rhs) {
		t.Error("φ(kP) != kφ(P)")
	}
}

func findPointT(t testing.TB, c *Curve) Point {
	t.Helper()
	return findPoint(t, c)
}

func TestCurve2ScalarMulMatchesRepeatedAdd(t *testing.T) {
	f := ff.NewField(testP)
	c := NewCurve(f)
	c2 := NewCurve2(ff.NewExt(f))
	p := c2.Distort(findPoint(t, c))
	acc := c2.Infinity()
	for k := int64(0); k <= 12; k++ {
		if !c2.ScalarMul(p, big.NewInt(k)).Equal(acc) {
			t.Fatalf("k=%d mismatch", k)
		}
		acc = c2.Add(acc, p)
	}
}
