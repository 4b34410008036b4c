package ff_test

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/ff"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
)

// TestInvMatchesModInverse checks Inv against math/big's ModInverse at
// toy, at default, and at the two topBitPrimes, on edge values and on
// seeded random ones. Each value v is inverted twice: as the element
// v and as the element whose Montgomery representative is v
// (ff.Raw), which is the integer the limb inversion itself sees.
func TestInvMatchesModInverse(t *testing.T) {
	pow2 := func(k uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), k) }
	top := topBitPrimes()
	moduli := map[string]*big.Int{
		"toy":     pairing.Toy().F.P,
		"default": pairing.Default().F.P,
		"2^512-" + new(big.Int).Sub(pow2(512), top[0]).String():                                    top[0],
		"2^512-2^448-" + new(big.Int).Sub(new(big.Int).Sub(pow2(512), pow2(448)), top[1]).String(): top[1],
	}
	random := 100000
	if testing.Short() {
		random = 1000
	}
	for name, p := range moduli {
		t.Run(name, func(t *testing.T) {
			f := ff.NewField(p)
			limbs := (p.BitLen() + 63) / 64
			r := new(big.Int).Lsh(big.NewInt(1), uint(64*limbs))
			one := big.NewInt(1)
			vals := []*big.Int{
				one,
				big.NewInt(2),
				new(big.Int).Sub(p, one),
				new(big.Int).Mod(r, p),
				new(big.Int).Mod(new(big.Int).Mul(r, r), p),
			}
			// Values whose top limbs are zero: one live limb, and every
			// limb but the top one full.
			for k := 1; k < limbs; k++ {
				top := new(big.Int).Lsh(one, uint(64*k))
				vals = append(vals, new(big.Int).Sub(top, one), new(big.Int).Add(new(big.Int).Rsh(top, 1), big.NewInt(3)))
			}
			rng := rand.New(rand.NewSource(47))
			buf := make([]byte, (p.BitLen()+7)/8)
			for range random {
				rng.Read(buf)
				v := new(big.Int).Mod(new(big.Int).SetBytes(buf), p)
				if v.Sign() != 0 {
					vals = append(vals, v)
				}
			}
			check := func(x ff.Elt) {
				t.Helper()
				v := new(big.Int).SetBytes(f.Bytes(x))
				want := new(big.Int).ModInverse(v, p)
				if got := new(big.Int).SetBytes(f.Bytes(f.Inv(x))); got.Cmp(want) != 0 {
					t.Fatalf("Inv(%v) = %v, want %v", v, got, want)
				}
			}
			for _, v := range vals {
				check(f.NewElt(v))
				check(ff.Raw(v))
			}
		})
	}
}
