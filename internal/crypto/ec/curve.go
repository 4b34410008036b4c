// Package ec implements arithmetic on the supersingular elliptic curve
//
//	E: y² = x³ + 1
//
// over F_p and over F_p², where p ≡ 2 (mod 3) and p ≡ 3 (mod 4). With
// these constraints E(F_p) has exactly p+1 points, the curve is
// supersingular, and the map φ(x, y) = (ζ·x, y) — with ζ a primitive
// cube root of unity in F_p² — is a distortion map that carries
// F_p-rational points to linearly independent points of E(F_p²). These
// are the ingredients the pairing package needs for a Type-1 (symmetric)
// bilinear pairing.
//
// Points use affine coordinates with an explicit infinity flag; the hot
// paths (ScalarMul, MultiScalarMul, fixed-base tables) run in Jacobian
// coordinates and convert back once. Sums of many points (SumEach, and
// through it the accumulators' digests and MultiScalarMul's unit
// scalars and buckets; SumEachIndex, over index lists into one slice
// such as a public key, for Construction 2's proofs) instead add
// affinely in rounds of independent additions that share one
// inversion, and finish on the Jacobian chain once the round's shape
// makes that cheaper; where the field has the 8-lane IFMA kernel
// (ff.Field.HasVec), a round of more than four additions runs on it,
// eight at a time (vecRound). SumEachIndex can reuse a caller's
// SumScratch, so a caller that sums repeatedly allocates nothing.
// Coordinates are ff.Elt values, so the group arithmetic allocates
// nothing per field operation; math/big appears here only for scalars.
package ec

import (
	"fmt"
	"math/big"

	"github.com/vchain-go/vchain/internal/crypto/ff"
)

// Curve is E(F_p): y² = x³ + 1 over the base prime field.
type Curve struct {
	// F is the base field F_p.
	F *ff.Field
	// Order is the number of points, p + 1 (supersingular).
	Order *big.Int
	// rounds, a test hook, overrides where SumEach's affine rounds run
	// when the field has the 8-lane kernel: on Field.Mul only
	// (scalarRounds) or on the kernel whatever their size (vecRounds).
	rounds int
}

const (
	autoRounds = iota
	scalarRounds
	vecRounds
)

// NewCurve constructs E(F_p). The supersingularity condition p ≡ 2
// (mod 3) is enforced; the field constructor enforces p ≡ 3 (mod 4).
func NewCurve(f *ff.Field) *Curve {
	if new(big.Int).Mod(f.P, big.NewInt(3)).Int64() != 2 {
		panic("ec: curve y²=x³+1 requires p ≡ 2 (mod 3) to be supersingular")
	}
	return &Curve{F: f, Order: new(big.Int).Add(f.P, big.NewInt(1))}
}

// Point is an affine point on E(F_p), or the point at infinity.
type Point struct {
	X, Y ff.Elt
	Inf  bool
}

// Infinity returns the group identity.
func (c *Curve) Infinity() Point { return Point{Inf: true} }

// NewPoint validates that (x, y) lies on the curve.
func (c *Curve) NewPoint(x, y ff.Elt) (Point, error) {
	p := Point{X: x, Y: y}
	if !c.IsOnCurve(p) {
		return Point{}, fmt.Errorf("ec: point not on curve")
	}
	return p, nil
}

// IsOnCurve reports whether p satisfies y² = x³ + 1 (infinity counts).
// Coordinates outside the canonical field range are rejected, so this
// also validates points deserialized from untrusted peers.
func (c *Curve) IsOnCurve(p Point) bool {
	if p.Inf {
		return true
	}
	if !c.F.InField(p.X) || !c.F.InField(p.Y) {
		return false
	}
	f := c.F
	lhs := f.Square(p.Y)
	rhs := f.Add(f.Mul(f.Square(p.X), p.X), f.One())
	return lhs.Equal(rhs)
}

// Equal reports whether two points are the same.
func (p Point) Equal(q Point) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X.Equal(q.X) && p.Y.Equal(q.Y)
}

// Neg returns -p.
func (c *Curve) Neg(p Point) Point {
	if p.Inf {
		return p
	}
	return Point{X: p.X, Y: c.F.Neg(p.Y)}
}

// Add returns p+q by the affine chord-and-tangent rules.
func (c *Curve) Add(p, q Point) Point {
	f := c.F
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
		return c.Infinity() // q = -p
	}
	lambda := f.Mul(f.Sub(q.Y, p.Y), f.Inv(f.Sub(q.X, p.X)))
	x3 := f.Sub(f.Sub(f.Square(lambda), p.X), q.X)
	y3 := f.Sub(f.Mul(lambda, f.Sub(p.X, x3)), p.Y)
	return Point{X: x3, Y: y3}
}

// Double returns 2p.
func (c *Curve) Double(p Point) Point {
	f := c.F
	if p.Inf || p.Y.IsZero() {
		return c.Infinity()
	}
	// λ = 3x² / 2y  (a = 0 for this curve)
	num := f.Mul(f.FromInt64(3), f.Square(p.X))
	den := f.Inv(f.Add(p.Y, p.Y))
	lambda := f.Mul(num, den)
	x3 := f.Sub(f.Sub(f.Square(lambda), p.X), p.X)
	y3 := f.Sub(f.Mul(lambda, f.Sub(p.X, x3)), p.Y)
	return Point{X: x3, Y: y3}
}

// ScalarMul returns k·p via a windowed non-adjacent form over Jacobian
// coordinates (see msm.go) — zero inversions inside the loop instead of
// one per bit. Negative k negates the point.
func (c *Curve) ScalarMul(p Point, k *big.Int) Point {
	if k.Sign() < 0 {
		return c.ScalarMul(c.Neg(p), new(big.Int).Neg(k))
	}
	if p.Inf || k.Sign() == 0 {
		return c.Infinity()
	}
	if k.BitLen() == 1 {
		return p // k = 1, the dominant case of multiplicity exponents
	}
	return c.scalarMulWNAF(p, k)
}

// HashToPoint maps a byte string onto the curve by hashing to an x
// candidate and incrementing until x³+1 is a quadratic residue
// (try-and-increment). The hashFn parameter decouples ec from a
// particular hash; vChain passes SHA-256.
func (c *Curve) HashToPoint(msg []byte, hashFn func([]byte) []byte) Point {
	f := c.F
	ctr := byte(0)
	for {
		h := hashFn(append(msg, ctr))
		x := f.Reduce(h)
		rhs := f.Add(f.Mul(f.Square(x), x), f.One())
		if y, ok := f.Sqrt(rhs); ok {
			return Point{X: x, Y: y}
		}
		ctr++
		if ctr == 0 {
			panic("ec: hash-to-point failed after 256 attempts (statistically impossible)")
		}
	}
}

// Bytes encodes a point as a tag byte plus fixed-width coordinates.
func (c *Curve) Bytes(p Point) []byte { return c.AppendBytes(make([]byte, 0, c.BytesLen(p)), p) }

// AppendBytes appends Bytes(p) to dst.
func (c *Curve) AppendBytes(dst []byte, p Point) []byte {
	if p.Inf {
		return append(dst, 0)
	}
	dst = c.F.AppendBytes(append(dst, 1), p.X)
	return c.F.AppendBytes(dst, p.Y)
}

// BytesLen returns the length of Bytes(p).
func (c *Curve) BytesLen(p Point) int {
	if p.Inf {
		return 1
	}
	return 1 + 2*c.F.ByteLen()
}

// ReadPoint decodes one point from the front of b and returns the
// remainder. The encoding is self-delimiting — the tag byte
// distinguishes the 1-byte infinity form from the full affine form —
// so concatenated point encodings parse unambiguously. The framing
// knowledge lives here, next to Bytes, so consumers never hard-code
// the layout.
func (c *Curve) ReadPoint(b []byte) (Point, []byte, error) {
	if len(b) == 0 {
		return Point{}, nil, fmt.Errorf("ec: truncated point encoding")
	}
	n := 1
	if b[0] != 0 {
		n = 1 + 2*((c.F.P.BitLen()+7)/8)
	}
	if len(b) < n {
		return Point{}, nil, fmt.Errorf("ec: truncated point encoding")
	}
	p, err := c.PointFromBytes(b[:n])
	if err != nil {
		return Point{}, nil, err
	}
	return p, b[n:], nil
}

// PointFromBytes decodes an encoding produced by Bytes and validates
// curve membership.
func (c *Curve) PointFromBytes(b []byte) (Point, error) {
	if len(b) == 0 {
		return Point{}, fmt.Errorf("ec: empty point encoding")
	}
	if b[0] == 0 {
		if len(b) != 1 {
			return Point{}, fmt.Errorf("ec: malformed infinity encoding")
		}
		return c.Infinity(), nil
	}
	if b[0] != 1 {
		// Only the tags 0 (infinity) and 1 (affine) exist; anything else
		// would re-encode differently, breaking canonicality.
		return Point{}, fmt.Errorf("ec: unknown point tag %d", b[0])
	}
	size := (c.F.P.BitLen() + 7) / 8
	if len(b) != 1+2*size {
		return Point{}, fmt.Errorf("ec: want %d bytes, got %d", 1+2*size, len(b))
	}
	x, err := c.F.EltFromBytes(b[1 : 1+size])
	if err != nil {
		return Point{}, err
	}
	y, err := c.F.EltFromBytes(b[1+size:])
	if err != nil {
		return Point{}, err
	}
	return c.NewPoint(x, y)
}
