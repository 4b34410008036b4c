package ff_test

import (
	"crypto/sha512"
	"math/big"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/ff"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
)

// presetFields are the base fields of the two parameter presets: 2 limbs
// at toy, 8 at default.
var presetFields = []string{"toy", "default"}

// fullWidth derives an element spread over every limb of f: the
// operands the group formulas see, unlike small integers or scalars.
func fullWidth(f *ff.Field, label string) ff.Elt {
	h := sha512.Sum512([]byte(label))
	return f.NewElt(new(big.Int).SetBytes(h[:]))
}

// BenchmarkFieldMul measures one Montgomery multiplication per preset,
// and at default also the generic product that Mul runs where the
// assembly kernel is not selected.
func BenchmarkFieldMul(b *testing.B) {
	for _, name := range presetFields {
		f := pairing.ByName(name).F
		x, y := fullWidth(f, "ff/bench/x"), fullWidth(f, "ff/bench/y")
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				x = f.Mul(x, y)
			}
		})
		if name == "default" {
			g := f.Generic()
			b.Run(name+"/generic", func(b *testing.B) {
				for b.Loop() {
					x = g.Mul(x, y)
				}
			})
		}
	}
}

// BenchmarkFieldInv measures one field inversion per preset, the unit
// each Miller-loop step and each affine normalisation pays.
func BenchmarkFieldInv(b *testing.B) {
	for _, name := range presetFields {
		f := pairing.ByName(name).F
		x := fullWidth(f, "ff/bench/x")
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				x = f.Inv(x)
			}
		})
	}
}
