package ec

import (
	"math/big"

	"github.com/vchain-go/vchain/internal/crypto/ff"
)

// Curve2 is E(F_p²): the same curve y² = x³ + 1 considered over the
// quadratic extension. The pairing's Miller loop evaluates line
// functions at points of E(F_p²) produced by the distortion map.
type Curve2 struct {
	// X is the extension field F_p².
	X *ff.Ext
	// Zeta is a primitive cube root of unity used by the distortion map.
	Zeta ff.Elt2
}

// NewCurve2 constructs E(F_p²) together with its distortion map constant.
func NewCurve2(x *ff.Ext) *Curve2 {
	return &Curve2{X: x, Zeta: x.CubeRootOfUnity()}
}

// Point2 is an affine point of E(F_p²), or infinity.
type Point2 struct {
	X, Y ff.Elt2
	Inf  bool
}

// Infinity returns the identity of E(F_p²).
func (c *Curve2) Infinity() Point2 { return Point2{Inf: true} }

// IsOnCurve reports whether p satisfies y² = x³ + 1 over F_p².
func (c *Curve2) IsOnCurve(p Point2) bool {
	if p.Inf {
		return true
	}
	x := c.X
	lhs := x.Square(p.Y)
	rhs := x.Add(x.Mul(x.Square(p.X), p.X), x.One())
	return lhs.Equal(rhs)
}

// Equal reports point equality.
func (p Point2) Equal(q Point2) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X.Equal(q.X) && p.Y.Equal(q.Y)
}

// Distort applies the distortion map φ(x, y) = (ζ·x, y), carrying an
// E(F_p) point to an E(F_p²) point outside the base-field subgroup.
// This is what makes the modified Tate pairing non-degenerate on a
// single cyclic group (Type-1 pairing).
func (c *Curve2) Distort(p Point) Point2 {
	if p.Inf {
		return c.Infinity()
	}
	x := c.X
	return Point2{X: x.MulBase(c.Zeta, p.X), Y: x.FromBase(p.Y)}
}

// Neg returns -p.
func (c *Curve2) Neg(p Point2) Point2 {
	if p.Inf {
		return p
	}
	return Point2{X: p.X, Y: c.X.Neg(p.Y)}
}

// Add returns p+q.
func (c *Curve2) Add(p, q Point2) Point2 {
	x := c.X
	if p.Inf {
		return q
	}
	if q.Inf {
		return p
	}
	if p.X.Equal(q.X) {
		if p.Y.Equal(q.Y) {
			return c.Double(p)
		}
		return c.Infinity()
	}
	lambda := x.Mul(x.Sub(q.Y, p.Y), x.Inv(x.Sub(q.X, p.X)))
	x3 := x.Sub(x.Sub(x.Square(lambda), p.X), q.X)
	y3 := x.Sub(x.Mul(lambda, x.Sub(p.X, x3)), p.Y)
	return Point2{X: x3, Y: y3}
}

// Double returns 2p.
func (c *Curve2) Double(p Point2) Point2 {
	x := c.X
	if p.Inf || p.Y.IsZero() {
		return c.Infinity()
	}
	three := x.FromBase(x.Base.FromInt64(3))
	num := x.Mul(three, x.Square(p.X))
	den := x.Inv(x.Add(p.Y, p.Y))
	lambda := x.Mul(num, den)
	x3 := x.Sub(x.Sub(x.Square(lambda), p.X), p.X)
	y3 := x.Sub(x.Mul(lambda, x.Sub(p.X, x3)), p.Y)
	return Point2{X: x3, Y: y3}
}

// ScalarMul returns k·p.
func (c *Curve2) ScalarMul(p Point2, k *big.Int) Point2 {
	if k.Sign() < 0 {
		return c.ScalarMul(c.Neg(p), new(big.Int).Neg(k))
	}
	r := c.Infinity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		r = c.Double(r)
		if k.Bit(i) == 1 {
			r = c.Add(r, p)
		}
	}
	return r
}
