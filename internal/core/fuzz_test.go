package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
)

// FuzzVODecode hammers the VO wire decoder with arbitrary bytes (and
// mutations of the golden vectors): it must never panic or over-
// allocate, and everything it accepts must re-encode byte-identically
// (canonicality) and survive a full verification attempt — the
// verifier is allowed to reject a decoded VO, but not to crash on one.
func FuzzVODecode(f *testing.F) {
	// Small chains give the fuzzed VOs real headers to verify against,
	// so seed mutants exercise the full walk (hash replay, clause
	// checks, pairing batch) rather than dying at the window bound.
	// Everything here runs under fuzz instrumentation, so the setup is
	// deliberately tiny — two blocks, small keys — to leave the
	// fuzztime budget to actual fuzzing.
	pr := pairing.Toy()
	type target struct {
		acc   accumulator.Accumulator
		light *chain.LightStore
		vo    []byte
	}
	var targets []target
	for _, acc := range []accumulator.Accumulator{
		accumulator.KeyGenCon1Deterministic(pr, 64, []byte("fuzz")),
		accumulator.KeyGenCon2Deterministic(pr, 128, accumulator.HashEncoder{Q: 128}, []byte("fuzz")),
	} {
		b := &Builder{Acc: acc, Mode: ModeIntra, Width: testWidth}
		node := NewFullNode(0, b)
		for i := 0; i < 2; i++ {
			if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
				f.Fatal(err)
			}
		}
		vo, err := node.SP(acc.SupportsAgg()).TimeWindowQuery(context.Background(), sedanBenzQuery(0, 1))
		if err != nil {
			f.Fatal(err)
		}
		light := chain.NewLightStore(0)
		if err := light.Sync(node.Store.Headers()); err != nil {
			f.Fatal(err)
		}
		targets = append(targets, target{acc: acc, light: light, vo: EncodeVO(acc, vo)})
	}
	q := sedanBenzQuery(0, 1)

	for _, tg := range targets {
		f.Add(tg.vo)
	}
	if b, err := os.ReadFile(filepath.Join("testdata", "golden_vo_toy_acc2.bin")); err == nil {
		f.Add(b)
	}
	f.Add([]byte("vVO1"))
	f.Add([]byte{})
	f.Add(append([]byte("vVO1"), 0xFF, 0xFF, 0xFF, 0xFF))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tg := range targets {
			acc := tg.acc
			vo, err := DecodeVO(acc, data)
			if err != nil {
				continue
			}
			re := EncodeVO(acc, vo)
			if !bytes.Equal(re, data) {
				t.Fatalf("%s: decode/encode not canonical (%d vs %d bytes)", acc.Name(), len(re), len(data))
			}
			// Size accounting must hold for anything decodable.
			if vo.SizeBytes(acc) < 0 {
				t.Fatalf("%s: negative VO size", acc.Name())
			}
			// Verification over a fuzzed VO must reject or accept
			// gracefully, never panic — in both flush modes, which must
			// agree on the outcome.
			seqErr := seqVerifyErr(tg.acc, tg.light, q, vo)
			batchErr := (&Verifier{Acc: acc, Light: tg.light}).
				verifyErr(q, vo)
			if (seqErr == nil) != (batchErr == nil) {
				t.Fatalf("%s: flush modes disagree: sequential=%v batched=%v", acc.Name(), seqErr, batchErr)
			}
		}
	})
}

// seqVerifyErr runs the sequential verifier and returns its error.
func seqVerifyErr(acc accumulator.Accumulator, light *chain.LightStore, q Query, vo *VO) error {
	_, err := (&Verifier{Acc: acc, Light: light, Sequential: true}).VerifyTimeWindow(q, vo)
	return err
}

// verifyErr adapts VerifyTimeWindow to an error-only result.
func (v *Verifier) verifyErr(q Query, vo *VO) error {
	_, err := v.VerifyTimeWindow(q, vo)
	return err
}
