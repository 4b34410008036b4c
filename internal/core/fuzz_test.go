package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/storage"
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
	// deliberately tiny — a few blocks, small keys — to leave the
	// fuzztime budget to actual fuzzing. Blocks 0 and 1 hold the car
	// example and blocks 2–5 only vans, so that the second query skips
	// them: under acc2 its skip cites the "sedan" group, beside a
	// mismatch node of blocks 0 and 1.
	pr := pairing.Toy()
	type target struct {
		acc   accumulator.Accumulator
		light *chain.LightStore
		vos   [][]byte
	}
	qs := []Query{sedanBenzQuery(0, 1), sedanBenzQuery(0, 5)}
	var targets []target
	for _, acc := range []accumulator.Accumulator{
		accumulator.KeyGenCon1Deterministic(pr, 64, []byte("fuzz")),
		accumulator.KeyGenCon2Deterministic(pr, 128, accumulator.HashEncoder{Q: 128}, []byte("fuzz")),
	} {
		b := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 1, Width: testWidth}
		node := NewFullNode(0, b)
		for i := 0; i < 6; i++ {
			objs := carObjects(uint64(i * 10))
			if i >= 2 {
				objs = vanObjects(uint64(i * 10))
			}
			if _, err := node.MineBlock(objs, int64(1000+i)); err != nil {
				f.Fatal(err)
			}
		}
		light := chain.NewLightStore(0)
		if err := light.Sync(node.Store.Headers()); err != nil {
			f.Fatal(err)
		}
		tg := target{acc: acc, light: light}
		for i, q := range qs {
			vo, err := node.SP(acc.SupportsAgg()).TimeWindowQuery(context.Background(), q)
			if err != nil {
				f.Fatal(err)
			}
			if i == 1 && acc.SupportsAgg() && groupedSkip(vo) == nil {
				f.Fatal("the skip seed holds no group-citing skip")
			}
			tg.vos = append(tg.vos, EncodeVO(acc, vo))
		}
		targets = append(targets, tg)
	}

	for _, tg := range targets {
		f.Add(tg.vos[0])
	}
	if b, err := os.ReadFile(filepath.Join("testdata", "golden_vo_toy_acc2.bin")); err == nil {
		f.Add(b)
	}
	f.Add([]byte("vVO2"))
	f.Add([]byte{})
	f.Add(append([]byte("vVO2"), 0xFF, 0xFF, 0xFF, 0xFF))
	for _, tg := range targets {
		f.Add(tg.vos[1])
	}

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
			for _, q := range qs {
				seqErr := seqVerifyErr(tg.acc, tg.light, q, vo)
				batchErr := (&Verifier{Acc: acc, Light: tg.light}).
					verifyErr(q, vo)
				if (seqErr == nil) != (batchErr == nil) {
					t.Fatalf("%s: flush modes disagree: sequential=%v batched=%v", acc.Name(), seqErr, batchErr)
				}
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

// FuzzRecordDecode hammers the chain record decoder with arbitrary
// bytes, seeded with real toy records of acc1 and acc2 in every index
// mode: it must never panic, every failure must wrap the record
// sentinel (or name an old format), and every record it accepts must
// re-encode to the identical bytes and be refused, with the sentinel,
// when truncated, when followed by a trailing byte, or when its first
// leaf names an object past the block's end.
func FuzzRecordDecode(f *testing.F) {
	pr := pairing.Toy()
	for _, acc := range []accumulator.Accumulator{
		accumulator.KeyGenCon1Deterministic(pr, 64, []byte("fuzz")),
		accumulator.KeyGenCon2Deterministic(pr, 128, accumulator.HashEncoder{Q: 128}, []byte("fuzz")),
	} {
		for _, mode := range []IndexMode{ModeNil, ModeIntra, ModeBoth} {
			b := &Builder{Acc: acc, Mode: mode, SkipSize: 1, Width: testWidth}
			mem := storage.NewMemory()
			node, err := NewFullNodeOn(0, b, mem)
			if err != nil {
				f.Fatal(err)
			}
			// At skip size 1 the fifth block holds the one skip entry.
			for i := 0; i < 5; i++ {
				if _, err := node.MineBlock(carObjects(uint64(i * 10))[:2+i%3], int64(1000+i)); err != nil {
					f.Fatal(err)
				}
			}
			rec, err := mem.Read(mem.Len() - 1)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(rec)
		}
	}
	f.Add([]byte{})
	f.Add(recMagic)

	f.Fuzz(func(t *testing.T, data []byte) {
		ads, err := DecodeChainRecordADS(data)
		if err != nil {
			if !errors.Is(err, errMalformedRecord) && !errors.Is(err, ErrOldRecordFormat) {
				t.Fatalf("decode failure wraps no record sentinel: %v", err)
			}
			return
		}
		blk, err := decodeRecordBlock(data)
		if err != nil {
			t.Fatalf("record decodes, its block does not: %v", err)
		}
		re, err := EncodeChainRecord(blk, ads)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical (%d vs %d bytes)", len(re), len(data))
		}
		reject := func(what string, data []byte) {
			if _, err := DecodeChainRecordADS(data); !errors.Is(err, errMalformedRecord) {
				t.Fatalf("%s: %v, want errMalformedRecord", what, err)
			}
		}
		reject("record less its last byte", data[:len(data)-1])
		reject("record cut in half", data[:len(data)/2])
		reject("record with a trailing byte", append(bytes.Clone(data), 0))
		bad := bytes.Clone(data)
		binary.BigEndian.PutUint32(bad[firstLeafIndexAt(blk, ads):], uint32(len(blk.Objects)))
		reject("leaf index out of range", bad)
	})
}

// firstLeafIndexAt returns the offset of the first leaf's object index
// in the record of (blk, ads): past the block, the width, and the tags
// and digests of the internal nodes on the leftmost path, and the
// leaf's own tag.
func firstLeafIndexAt(blk *chain.Block, ads *BlockADS) int {
	at := len(recMagic) + chain.HeaderSize + 4 + 8
	for i := range blk.Objects {
		at += encodedObjectSize(&blk.Objects[i])
	}
	for n := ads.Root; ; n = n.Left {
		at++
		if n.IsLeaf() {
			return at
		}
		if n.HasDigest {
			var e recEncoder
			e.digest(n.Digest)
			at += len(e.Buf)
		}
	}
}
