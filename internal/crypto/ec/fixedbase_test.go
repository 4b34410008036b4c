package ec

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/ff"
)

func TestFixedBaseMatchesScalarMul(t *testing.T) {
	c := NewCurve(ff.NewField(testP))
	base := findPoint(t, c)
	fb := NewFixedBase(c, base, 16)
	rng := rand.New(rand.NewSource(31))
	// Edge scalars plus random ones.
	ks := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(15),
		big.NewInt(16), big.NewInt(17), big.NewInt(255), big.NewInt(-7),
		big.NewInt(65535),
	}
	for i := 0; i < 40; i++ {
		ks = append(ks, big.NewInt(int64(rng.Intn(1<<16))))
	}
	for _, k := range ks {
		got := fb.Mul(k)
		want := c.ScalarMul(base, k)
		if !got.Equal(want) {
			t.Fatalf("k=%v: fixed-base %v != generic %v", k, got, want)
		}
	}
}

func TestFixedBaseBeyondPrecomputedRange(t *testing.T) {
	c := NewCurve(ff.NewField(testP))
	base := findPoint(t, c)
	fb := NewFixedBase(c, base, 8) // only 2 windows
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 20; i++ {
		k := big.NewInt(int64(rng.Intn(1 << 20))) // up to 20 bits
		if !fb.Mul(k).Equal(c.ScalarMul(base, k)) {
			t.Fatalf("overflow path wrong for k=%v", k)
		}
	}
}

func BenchmarkFixedBaseVsGeneric(b *testing.B) {
	c := NewCurve(ff.NewField(testP))
	base := findPoint(b, c)
	fb := NewFixedBase(c, base, 60)
	k := big.NewInt(0x1234_5678_9abc)
	b.Run("fixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fb.Mul(k)
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.ScalarMul(base, k)
		}
	})
}
