package ec

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/ff"
)

// randPoints returns a mix of random curve points, including infinity,
// 2-torsion (y = 0), and repeated values — the degenerate inputs the
// Jacobian formulas special-case.
func randPoints(t testing.TB, c *Curve, rng *rand.Rand, n int) []Point {
	t.Helper()
	base := findPoint(t, c)
	out := make([]Point, 0, n)
	out = append(out, c.Infinity(), base, c.Neg(base))
	// A 2-torsion point if one exists: x with x³+1 a root of y²=0, i.e.
	// y = 0 ⇒ x³ = −1 ⇒ x = −1 works over any field here.
	if tw, err := c.NewPoint(c.F.FromInt64(-1), c.F.Zero()); err == nil {
		out = append(out, tw)
	}
	for len(out) < n {
		k := big.NewInt(int64(rng.Intn(2000) + 1))
		out = append(out, c.ScalarMul(base, k))
	}
	return out
}

func TestJacRoundTrip(t *testing.T) {
	c := testCurve(t)
	rng := rand.New(rand.NewSource(41))
	for _, p := range randPoints(t, c, rng, 30) {
		got := c.FromJac(c.ToJac(p))
		if !got.Equal(p) {
			t.Fatalf("round trip %v -> %v", p, got)
		}
	}
	if !c.FromJac(JacPoint{}).Inf {
		t.Fatal("Jacobian infinity did not map to affine infinity")
	}
}

// TestJacNonTrivialZ exercises FromJac and the add/double formulas on
// representatives with Z ≠ 1: scale (X, Y, Z) by (λ²u, λ³u, λu).
func TestJacNonTrivialZ(t *testing.T) {
	c := testCurve(t)
	f := c.F
	rng := rand.New(rand.NewSource(43))
	base := findPoint(t, c)
	scale := func(p JacPoint, lam ff.Elt) JacPoint {
		l2 := f.Square(lam)
		return JacPoint{
			X: f.Mul(p.X, l2),
			Y: f.Mul(p.Y, f.Mul(l2, lam)),
			Z: f.Mul(p.Z, lam),
		}
	}
	for i := 0; i < 25; i++ {
		p := c.ScalarMul(base, big.NewInt(int64(rng.Intn(500)+1)))
		q := c.ScalarMul(base, big.NewInt(int64(rng.Intn(500)+1)))
		lam := f.FromInt64(int64(rng.Intn(900) + 2))
		jp := scale(c.ToJac(p), lam)
		jq := c.ToJac(q)
		if !c.FromJac(jp).Equal(p) {
			t.Fatal("scaled representative decodes to a different point")
		}
		if got := c.FromJac(c.JacAdd(jp, jq)); !got.Equal(c.Add(p, q)) {
			t.Fatalf("JacAdd with Z≠1: got %v want %v", got, c.Add(p, q))
		}
		if got := c.FromJac(c.JacAddMixed(jp, q)); !got.Equal(c.Add(p, q)) {
			t.Fatalf("JacAddMixed with Z≠1: got %v want %v", got, c.Add(p, q))
		}
		if got := c.FromJac(c.JacDouble(jp)); !got.Equal(c.Double(p)) {
			t.Fatalf("JacDouble with Z≠1: got %v want %v", got, c.Double(p))
		}
	}
}

// TestJacMatchesAffine quick-checks every Jacobian operation against
// its affine counterpart over all pairs of a degenerate-rich point set.
func TestJacMatchesAffine(t *testing.T) {
	c := testCurve(t)
	rng := rand.New(rand.NewSource(42))
	pts := randPoints(t, c, rng, 20)
	for _, p := range pts {
		jp := c.ToJac(p)
		if got, want := c.FromJac(c.JacDouble(jp)), c.Double(p); !got.Equal(want) {
			t.Fatalf("JacDouble(%v): got %v want %v", p, got, want)
		}
		if got, want := c.FromJac(c.JacNeg(jp)), c.Neg(p); !got.Equal(want) {
			t.Fatalf("JacNeg(%v): got %v want %v", p, got, want)
		}
		for _, q := range pts {
			want := c.Add(p, q)
			if got := c.FromJac(c.JacAdd(jp, c.ToJac(q))); !got.Equal(want) {
				t.Fatalf("JacAdd(%v, %v): got %v want %v", p, q, got, want)
			}
			if got := c.FromJac(c.JacAddMixed(jp, q)); !got.Equal(want) {
				t.Fatalf("JacAddMixed(%v, %v): got %v want %v", p, q, got, want)
			}
		}
	}
}

func TestNormalizeJacMatchesFromJac(t *testing.T) {
	c := testCurve(t)
	rng := rand.New(rand.NewSource(44))
	pts := randPoints(t, c, rng, 40)
	js := make([]JacPoint, len(pts))
	for i, p := range pts {
		js[i] = c.ToJac(p)
		// Accumulate a few times so Z ≠ 1 for most entries.
		for k := 0; k < i%4; k++ {
			js[i] = c.JacDouble(js[i])
			pts[i] = c.Double(pts[i])
		}
	}
	aff := c.NormalizeJac(js)
	if len(aff) != len(js) {
		t.Fatalf("length mismatch %d != %d", len(aff), len(js))
	}
	for i := range js {
		if !aff[i].Equal(c.FromJac(js[i])) {
			t.Fatalf("entry %d: batch %v != single %v", i, aff[i], c.FromJac(js[i]))
		}
		if !aff[i].Equal(pts[i]) {
			t.Fatalf("entry %d: batch %v != affine %v", i, aff[i], pts[i])
		}
	}
	// Empty and all-infinity batches.
	if got := c.NormalizeJac(nil); len(got) != 0 {
		t.Fatal("nil batch should normalize to empty")
	}
	allInf := c.NormalizeJac(make([]JacPoint, 5))
	for _, p := range allInf {
		if !p.Inf {
			t.Fatal("zero-value JacPoint must normalize to infinity")
		}
	}
}

// TestJacOrderAnnihilates checks (p+1)·P = ∞ through the wNAF path on
// random hashed points (the subgroup structure of the test curve).
func TestJacOrderAnnihilates(t *testing.T) {
	c := testCurve(t)
	for i := 0; i < 8; i++ {
		p := c.HashToPoint([]byte{byte(i)}, sha)
		if !c.ScalarMul(p, c.Order).Equal(c.Infinity()) {
			t.Fatalf("order·P != ∞ for point %d", i)
		}
	}
}
