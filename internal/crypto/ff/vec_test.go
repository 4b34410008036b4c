package ff_test

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/ff"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
)

// TestVecSelection pins the rule NewField applies to the 8-lane kernel:
// every 8-limb field on a host with AVX-512 IFMA, whatever its top limb,
// and no field of fewer limbs.
func TestVecSelection(t *testing.T) {
	t.Logf("host runs the 8-lane IFMA kernel: %v", ff.HostIFMA)
	tp := topBitPrimes()
	for _, c := range []struct {
		name string
		f    *ff.Field
		want bool
	}{
		{"default", pairing.Default().F, ff.HostIFMA},
		{"toy", pairing.Toy().F, false},
		{"2^512-k", ff.NewField(tp[0]), ff.HostIFMA},
		{"2^512-2^448-k", ff.NewField(tp[1]), ff.HostIFMA},
	} {
		if got := c.f.HasVec(); got != c.want {
			t.Errorf("%s: 8-lane kernel selected = %v, want %v", c.name, got, c.want)
		}
	}
}

// vecFields are the moduli the kernel is checked at: the default
// preset's and the two top-bit primes, whose 2p needs a 513th bit.
func vecFields(t *testing.T) map[string]*ff.Field {
	if !ff.HostIFMA {
		t.Skip("8-lane IFMA kernel not selected on this host (not amd64, or no AVX-512 IFMA)")
	}
	tp := topBitPrimes()
	return map[string]*ff.Field{
		"default":       pairing.Default().F,
		"2^512-k":       ff.NewField(tp[0]),
		"2^512-2^448-k": ff.NewField(tp[1]),
	}
}

// TestVecMulMatchesBig checks the 8-lane product against math/big on
// edge lanes (0, 1, p−1, 2p−1, R mod p, R′ mod p) in every pairing and
// lane position, and on seeded random batches of values in [0, 2p):
// every lane must be below 2p and congruent to x·y·2⁻⁵²⁰.
func TestVecMulMatchesBig(t *testing.T) {
	batches := map[string]int{"default": 100_000, "2^512-k": 20_000, "2^512-2^448-k": 20_000}
	if testing.Short() {
		batches = map[string]int{"default": 2_000, "2^512-k": 1_000, "2^512-2^448-k": 1_000}
	}
	for name, f := range vecFields(t) {
		t.Run(name, func(t *testing.T) {
			p := f.P
			one := big.NewInt(1)
			p2 := new(big.Int).Lsh(p, 1)
			rInv := new(big.Int).ModInverse(new(big.Int).Lsh(one, 520), p)
			edges := []*big.Int{
				big.NewInt(0), one, new(big.Int).Sub(p, one), new(big.Int).Sub(p2, one),
				new(big.Int).Mod(new(big.Int).Lsh(one, 512), p),
				new(big.Int).Mod(new(big.Int).Lsh(one, 520), p),
			}
			var x, y, z ff.Vec
			var xs, ys [8]*big.Int
			check := func() {
				t.Helper()
				f.VecMul(&z, &x, &y)
				for j := range 8 {
					got := ff.Lane52(&z, j)
					want := new(big.Int).Mul(xs[j], ys[j])
					want.Mul(want, rInv).Mod(want, p)
					if got.Cmp(p2) >= 0 || new(big.Int).Mod(got, p).Cmp(want) != 0 {
						t.Fatalf("lane %d: %v·%v gave %v, want %v mod p (below 2p)", j, xs[j], ys[j], got, want)
					}
				}
			}
			n := 0
			for _, a := range edges {
				for _, b := range edges {
					for range 8 { // each pairing in every lane, beside the others
						j := n % 8
						xs[j], ys[j] = a, b
						ff.SetLane52(&x, j, a)
						ff.SetLane52(&y, j, b)
						if n++; n%8 == 0 {
							check()
						}
					}
				}
			}
			rng := rand.New(rand.NewSource(52))
			for range batches[name] {
				for j := range 8 {
					xs[j], ys[j] = new(big.Int).Rand(rng, p2), new(big.Int).Rand(rng, p2)
					ff.SetLane52(&x, j, xs[j])
					ff.SetLane52(&y, j, ys[j])
				}
				check()
			}
			// z aliasing x or y.
			z = x
			f.VecMul(&z, &z, &y)
			var w ff.Vec
			f.VecMul(&w, &x, &y)
			if z != w {
				t.Fatal("z = x: product differs")
			}
		})
	}
}

// TestVecOpsMatchBig checks Set/Get, VecSub, VecInvertEach and
// VecChord against math/big on seeded random elements: the chord of
// random x1 ≠ x2, y1, y2 (no curve is needed: the formulas are
// algebraic), with the slope's inverse taken in three-Vec batches.
func TestVecOpsMatchBig(t *testing.T) {
	for name, f := range vecFields(t) {
		t.Run(name, func(t *testing.T) {
			p := f.P
			rng := rand.New(rand.NewSource(8))
			const nb = 3
			var x1, y1, x2, y2 [nb][8]*big.Int
			var vx1, vy1, vx2, vy2, den, inv [nb]ff.Vec
			for b := range nb {
				for j := range 8 {
					x1[b][j], y1[b][j] = new(big.Int).Rand(rng, p), new(big.Int).Rand(rng, p)
					x2[b][j], y2[b][j] = new(big.Int).Rand(rng, p), new(big.Int).Rand(rng, p)
					if b == 0 && j == 0 {
						x1[b][j], y2[b][j] = big.NewInt(0), new(big.Int).Sub(p, big.NewInt(1))
					}
					for _, s := range []struct {
						v *ff.Vec
						x *big.Int
					}{{&vx1[b], x1[b][j]}, {&vy1[b], y1[b][j]}, {&vx2[b], x2[b][j]}, {&vy2[b], y2[b][j]}} {
						e := f.NewElt(s.x)
						if s.v.Set(j, e); !s.v.Get(j).Equal(e) {
							t.Fatalf("Set/Get of %v", s.x)
						}
					}
				}
				f.VecSub(&den[b], &vx2[b], &vx1[b])
			}
			f.VecInvertEach(den[:], inv[:])
			for b := range nb {
				var x3, y3 ff.Vec
				f.VecChord(&x3, &y3, &vx1[b], &vy1[b], &vx2[b], &vy2[b], &inv[b])
				for j := range 8 {
					d := new(big.Int).Sub(x2[b][j], x1[b][j])
					l := new(big.Int).Sub(y2[b][j], y1[b][j])
					l.Mul(l, d.ModInverse(d.Mod(d, p), p)).Mod(l, p)
					wx := new(big.Int).Mul(l, l)
					wx.Sub(wx, x1[b][j]).Sub(wx, x2[b][j]).Mod(wx, p)
					wy := new(big.Int).Sub(x1[b][j], wx)
					wy.Mul(wy, l).Sub(wy, y1[b][j]).Mod(wy, p)
					if !x3.Get(j).Equal(f.NewElt(wx)) || !y3.Get(j).Equal(f.NewElt(wy)) {
						t.Fatalf("batch %d lane %d: chord differs from math/big", b, j)
					}
				}
			}
		})
	}
}

// BenchmarkVecMul measures one 8-lane product at the default preset:
// divide by 8 for the cost of one lane's product, against
// BenchmarkFieldMul/default.
func BenchmarkVecMul(b *testing.B) {
	f := pairing.Default().F
	if !f.HasVec() {
		b.Skip("8-lane IFMA kernel not selected on this host")
	}
	var x, y ff.Vec
	for j := range 8 {
		x.Set(j, fullWidth(f, "ff/bench/x"))
		y.Set(j, fullWidth(f, "ff/bench/y"))
	}
	for b.Loop() {
		f.VecMul(&x, &x, &y)
	}
}

// TestVecLaneArithMatchesBig checks the lazy lane arithmetic the Miller
// loops run on against math/big: VecAdd and VecSub on edge lanes (0,
// 1, p−1, p, 2p−1) and seeded random lanes below 2p must stay below 2p
// and congruent to the sum and difference; VecEnter then VecLeave must
// return every element unchanged; and VecExt's Mul and Square, on
// entered lanes, must leave what Ext's give, element for element.
func TestVecLaneArithMatchesBig(t *testing.T) {
	for name, f := range vecFields(t) {
		t.Run(name, func(t *testing.T) {
			p := f.P
			one := big.NewInt(1)
			p2 := new(big.Int).Lsh(p, 1)
			edges := []*big.Int{big.NewInt(0), one, new(big.Int).Sub(p, one), p, new(big.Int).Sub(p2, one)}
			rng := rand.New(rand.NewSource(53))
			var x, y, z ff.Vec
			var xs, ys [8]*big.Int
			for n := range 2000 {
				for j := range 8 {
					if k := n*8 + j; k < len(edges)*len(edges) {
						xs[j], ys[j] = edges[k/len(edges)], edges[k%len(edges)]
					} else {
						xs[j], ys[j] = new(big.Int).Rand(rng, p2), new(big.Int).Rand(rng, p2)
					}
					ff.SetLane52(&x, j, xs[j])
					ff.SetLane52(&y, j, ys[j])
				}
				for _, op := range []struct {
					name string
					run  func(z, x, y *ff.Vec)
					want func(a, b *big.Int) *big.Int
				}{
					{"VecAdd", f.VecAdd, func(a, b *big.Int) *big.Int { return new(big.Int).Add(a, b) }},
					{"VecSub", f.VecSub, func(a, b *big.Int) *big.Int { return new(big.Int).Sub(a, b) }},
				} {
					op.run(&z, &x, &y)
					for j := range 8 {
						got := ff.Lane52(&z, j)
						want := op.want(xs[j], ys[j])
						if d := new(big.Int).Sub(got, want); got.Cmp(p2) >= 0 || d.Mod(d, p).Sign() != 0 {
							t.Fatalf("%s lane %d: %v, %v gave %v, want ≡ %v below 2p", op.name, j, xs[j], ys[j], got, want)
						}
					}
				}
			}

			x2 := ff.NewExt(f)
			ext := f.NewVecExt()
			var a, b ff.Vec2
			var ea, eb [8]ff.Elt2
			for range 200 {
				for j := range 8 {
					ea[j] = x2.New(f.NewElt(new(big.Int).Rand(rng, p)), f.NewElt(new(big.Int).Rand(rng, p)))
					eb[j] = x2.New(f.NewElt(new(big.Int).Rand(rng, p)), f.NewElt(new(big.Int).Rand(rng, p)))
					a.A.Set(j, ea[j].A)
					a.B.Set(j, ea[j].B)
					b.A.Set(j, eb[j].A)
					b.B.Set(j, eb[j].B)
				}
				for _, v := range []*ff.Vec{&a.A, &a.B, &b.A, &b.B} {
					f.VecEnter(v, v)
				}
				var m, s ff.Vec2
				ext.Mul(&m, &a, &b)
				ext.Square(&s, &a)
				for _, v := range []*ff.Vec{&a.A, &a.B, &m.A, &m.B, &s.A, &s.B} {
					f.VecLeave(v, v)
				}
				for j := range 8 {
					if got := x2.New(a.A.Get(j), a.B.Get(j)); !got.Equal(ea[j]) {
						t.Fatalf("lane %d: VecEnter then VecLeave changed the element", j)
					}
					if got := x2.New(m.A.Get(j), m.B.Get(j)); !got.Equal(x2.Mul(ea[j], eb[j])) {
						t.Fatalf("lane %d: VecExt.Mul differs from Ext.Mul", j)
					}
					if got := x2.New(s.A.Get(j), s.B.Get(j)); !got.Equal(x2.Square(ea[j])) {
						t.Fatalf("lane %d: VecExt.Square differs from Ext.Square", j)
					}
				}
			}
		})
	}
}
