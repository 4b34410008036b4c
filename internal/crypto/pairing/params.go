// Package pairing implements a Type-1 (symmetric) bilinear pairing
//
//	ê : G × G → G_T
//
// on the supersingular curve y² = x³ + 1 over F_p, following the
// classic Boneh–Franklin construction: G is the order-r subgroup of
// E(F_p), G_T is the order-r subgroup of F_p²*, and
//
//	ê(P, Q) = f_{r,P}(φ(Q))^((p²−1)/r)
//
// is the modified Tate pairing through the distortion map
// φ(x, y) = (ζ·x, y). A symmetric pairing is exactly the primitive the
// vChain paper's accumulator constructions are written for
// (e: G×G → H with both arguments in the same group).
//
// Parameters are found by a deterministic search (no trusted setup, no
// hard-coded magic): r is the first prime ≥ a seed derived from a
// label, and p = 12k·r − 1 for the first k making p prime. The factor
// 12 forces p ≡ 2 (mod 3) (supersingularity + cube roots of unity in
// F_p² only) and p ≡ 3 (mod 4) (i²+1 irreducible, easy square roots).
package pairing

import (
	"crypto/sha256"
	"fmt"
	"math/big"
	"sort"
	"strings"
	"sync"

	"github.com/vchain-go/vchain/internal/crypto/ec"
	"github.com/vchain-go/vchain/internal/crypto/ff"
)

// Params bundles everything needed to compute pairings.
type Params struct {
	// Name identifies the preset ("toy" or "default").
	Name string
	// F is the base field F_p.
	F *ff.Field
	// X is the extension field F_p².
	X *ff.Ext
	// C is E(F_p).
	C *ec.Curve
	// C2 is E(F_p²) with the distortion map.
	C2 *ec.Curve2
	// R is the prime order of G and G_T.
	R *big.Int
	// Cofactor is (p+1)/r; multiplying a random curve point by it lands
	// in G.
	Cofactor *big.Int
	// G is a fixed generator of the order-r subgroup.
	G ec.Point
	// rNAF and cofNAF are the non-adjacent forms of R and Cofactor,
	// least significant digit first: the Miller loop's schedule and the
	// final exponentiation's exponent after its p−1 part.
	rNAF, cofNAF []int8
	// scalarMiller keeps the Miller loops on Field.Mul where the field
	// has the 8-lane kernel; only tests set it.
	scalarMiller bool
}

// securityPreset describes a deterministic parameter search target.
type securityPreset struct {
	name  string
	rBits int
	pBits int
}

var presets = map[string]securityPreset{
	// Toy parameters keep unit tests fast. They offer no security and
	// exist only so the full protocol stack can be exercised cheaply.
	"toy": {name: "toy", rBits: 50, pBits: 128},
	// Default matches a classic ~80-bit-security supersingular setting
	// (DLOG in F_p² with p ≈ 512 bits), adequate for a research
	// reproduction. No higher preset ships: that is a known limit, not
	// a production-grade security level.
	"default": {name: "default", rBits: 160, pBits: 512},
}

var (
	paramCache   = map[string]*Params{}
	paramCacheMu sync.Mutex
)

// Lookup returns (and caches) the named preset's parameters. Known
// names are "toy" and "default"; any other name is an error that lists
// them.
func Lookup(name string) (*Params, error) {
	preset, ok := presets[name]
	if !ok {
		known := make([]string, 0, len(presets))
		for k := range presets {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("pairing: unknown parameter preset %q (known: %s)", name, strings.Join(known, ", "))
	}
	paramCacheMu.Lock()
	defer paramCacheMu.Unlock()
	if p, ok := paramCache[name]; ok {
		return p, nil
	}
	p := generate(preset)
	paramCache[name] = p
	return p, nil
}

// ByName is Lookup for names known to be valid: it panics on an
// unknown preset.
func ByName(name string) *Params {
	p, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Toy returns the fast insecure test parameters.
func Toy() *Params { return ByName("toy") }

// Default returns the standard parameters.
func Default() *Params { return ByName("default") }

// generate runs the deterministic Boneh–Franklin-style parameter search.
func generate(ps securityPreset) *Params {
	r := findPrime(ps.name, ps.rBits)

	// p = 12k·r − 1 with k sized so that p has pBits bits.
	kBits := ps.pBits - ps.rBits - 4 // 12 ≈ 2^3.6 extra bits
	if kBits < 1 {
		kBits = 1
	}
	k := seedInt(ps.name+"/k", kBits)
	twelve := big.NewInt(12)
	one := big.NewInt(1)
	p := new(big.Int)
	for {
		p.Mul(twelve, k)
		p.Mul(p, r)
		p.Sub(p, one)
		if p.ProbablyPrime(64) {
			break
		}
		k.Add(k, one)
	}

	f := ff.NewField(p)
	x := ff.NewExt(f)
	c := ec.NewCurve(f)
	c2 := ec.NewCurve2(x)

	cofactor := new(big.Int).Div(c.Order, r)

	// Deterministic generator: hash to a point and clear the cofactor.
	// Retry (by extending the label) until the result is a true
	// generator, i.e. not the identity.
	g := ec.Point{Inf: true}
	for i := 0; ; i++ {
		cand := c.HashToPoint([]byte(ps.name+"/generator/"+string(rune('a'+i))), shaBytes)
		g = c.ScalarMul(cand, cofactor)
		if !g.Inf {
			break
		}
	}

	return &Params{
		Name:     ps.name,
		F:        f,
		X:        x,
		C:        c,
		C2:       c2,
		R:        r,
		Cofactor: cofactor,
		G:        g,
		rNAF:     ec.NAF(r),
		cofNAF:   ec.NAF(cofactor),
	}
}

func shaBytes(b []byte) []byte {
	h := sha256.Sum256(b)
	return h[:]
}

// seedInt derives a deterministic bits-wide positive integer from a
// label by chaining SHA-256.
func seedInt(label string, bits int) *big.Int {
	var buf []byte
	h := sha256.Sum256([]byte("vchain/pairing/" + label))
	buf = append(buf, h[:]...)
	for len(buf)*8 < bits {
		h = sha256.Sum256(h[:])
		buf = append(buf, h[:]...)
	}
	v := new(big.Int).SetBytes(buf)
	// Trim to exactly `bits` bits and force the top bit so the width is
	// stable.
	v.Rsh(v, uint(v.BitLen()-bits))
	v.SetBit(v, bits-1, 1)
	return v
}

// findPrime returns the first probable prime at or above a
// deterministic odd seed of the requested width.
func findPrime(label string, bits int) *big.Int {
	v := seedInt(label+"/r", bits)
	v.SetBit(v, 0, 1) // make odd
	two := big.NewInt(2)
	for !v.ProbablyPrime(64) {
		v.Add(v, two)
	}
	return v
}

// RandScalar maps arbitrary bytes to a non-zero scalar in Z_r*. It is
// used for hashing set elements into the exponent domain.
func (pr *Params) RandScalar(b []byte) *big.Int {
	h := sha256.Sum256(b)
	v := new(big.Int).SetBytes(h[:])
	v.Mod(v, pr.R)
	if v.Sign() == 0 {
		v.SetInt64(1)
	}
	return v
}
