package ff_test

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/ff"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
)

// primeBelow returns the largest prime p < top with p ≡ 3 (mod 4).
func primeBelow(top *big.Int) *big.Int {
	p := new(big.Int).Sub(top, big.NewInt(1))
	for p.Bit(0) == 0 || p.Bit(1) == 0 || !p.ProbablyPrime(20) {
		p.Sub(p, big.NewInt(1))
	}
	return p
}

// topBitPrimes are the two largest 8-limb moduli either side of the
// assembly kernel's bound, both with the top bit set: 2⁵¹² − k, whose
// top limb is 2⁶⁴−1 and so takes the generic product, and
// 2⁵¹² − 2⁴⁴⁸ − k, whose top limb 2⁶⁴−2 is the largest the kernel
// takes, for the least k that makes each a prime ≡ 3 (mod 4).
var topBitPrimes = sync.OnceValue(func() [2]*big.Int {
	top := new(big.Int).Lsh(big.NewInt(1), 512)
	limit := new(big.Int).Sub(top, new(big.Int).Lsh(big.NewInt(1), 448))
	return [2]*big.Int{primeBelow(top), primeBelow(limit)}
})

// TestKernelSelection pins the rule NewField applies: the kernel runs on
// 8-limb moduli with a top limb below 2⁶⁴−1, and never on fewer limbs.
func TestKernelSelection(t *testing.T) {
	def := pairing.Default().F
	if !def.KernelSelected() {
		t.Skip("assembly kernel not selected on this host (not amd64, or no BMI2/ADX)")
	}
	tp := topBitPrimes()
	top := new(big.Int).Lsh(big.NewInt(1), 512)
	t.Logf("moduli 2^512−%v and 2^512−2^448−%v", new(big.Int).Sub(top, tp[0]),
		new(big.Int).Sub(new(big.Int).Sub(top, new(big.Int).Lsh(big.NewInt(1), 448)), tp[1]))
	for _, c := range []struct {
		name string
		f    *ff.Field
		want bool
	}{
		{"default", def, true},
		{"toy", pairing.Toy().F, false},
		{"2^512-k", ff.NewField(tp[0]), false},
		{"2^512-2^448-k", ff.NewField(tp[1]), true},
	} {
		if got := c.f.KernelSelected(); got != c.want {
			t.Errorf("%s: kernel selected = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestMulKernelMatchesGeneric is a differential test of the assembly
// kernel against the generic product on the same field, at the default
// preset and at the largest 8-limb modulus the kernel takes: edge
// operands in every pair, z aliasing x and y, and 10⁵ seeded random
// pairs.
func TestMulKernelMatchesGeneric(t *testing.T) {
	// The top-bit field comes first and needs no pairing parameters:
	// building the default preset runs thousands of products, so a
	// broken kernel can fail there before any comparison.
	top := ff.NewField(topBitPrimes()[1])
	if !top.KernelSelected() {
		t.Skip("assembly kernel not selected on this host (not amd64, or no BMI2/ADX): Mul runs the generic product only")
	}
	t.Log("assembly kernel selected on this host")
	t.Run("2^512-2^448-k", func(t *testing.T) { checkKernel(t, top) })
	t.Run("default", func(t *testing.T) { checkKernel(t, pairing.Default().F) })
}

func checkKernel(t *testing.T, f *ff.Field) {
	if !f.KernelSelected() {
		t.Fatalf("p=%x: kernel not selected", f.P)
	}
	gen := f.Generic()
	p := f.P
	one := big.NewInt(1)
	r := new(big.Int).Lsh(one, 512)
	edges := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(p, one), new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Mod(r, p),
		new(big.Int).Exp(r, big.NewInt(2), p),
	}
	for k := uint(1); k < 8; k++ { // all-ones low limbs
		edges = append(edges, new(big.Int).Sub(new(big.Int).Lsh(one, 64*k), one))
	}
	check := func(x, y ff.Elt) {
		t.Helper()
		want := gen.Mul(x, y)
		if got := f.Mul(x, y); !got.Equal(want) {
			t.Fatalf("p=%x: Mul(%v, %v) = %v, generic %v", p, x, y, got, want)
		}
		z := x
		if f.MulKernel(&z, &z, &y); !z.Equal(want) {
			t.Fatalf("p=%x: z=x: Mul(%v, %v) = %v, generic %v", p, x, y, z, want)
		}
		z = y
		if f.MulKernel(&z, &x, &z); !z.Equal(want) {
			t.Fatalf("p=%x: z=y: Mul(%v, %v) = %v, generic %v", p, x, y, z, want)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(ff.Raw(a), ff.Raw(b))
		}
		x := ff.Raw(a)
		want := gen.Mul(x, x)
		z := x
		if f.MulKernel(&z, &z, &z); !z.Equal(want) {
			t.Fatalf("p=%x: z=x=y: square of %v = %v, generic %v", p, x, z, want)
		}
	}
	rng := rand.New(rand.NewSource(43))
	for range 100_000 {
		check(ff.Raw(new(big.Int).Rand(rng, p)), ff.Raw(new(big.Int).Rand(rng, p)))
	}
}
