package core

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/storage"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden VO, header and record fixtures under testdata/")

func TestVOCodecRoundTrip(t *testing.T) {
	for accName, acc := range testAccs(t) {
		for _, mode := range []IndexMode{ModeNil, ModeIntra, ModeBoth} {
			for _, batched := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/batched=%v", accName, mode, batched), func(t *testing.T) {
					node, light := buildTestChain(t, acc, mode, 4)
					q := sedanBenzQuery(0, 3)
					vo, err := node.SP(batched).TimeWindowQuery(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					enc := EncodeVO(acc, vo)
					dec, err := DecodeVO(acc, enc)
					if err != nil {
						t.Fatalf("decode: %v", err)
					}
					re := EncodeVO(acc, dec)
					if !bytes.Equal(enc, re) {
						t.Fatal("encode→decode→encode not byte-identical")
					}
					// The decoded VO must verify and yield identical results.
					ver := &Verifier{Acc: acc, Light: light}
					want, err := ver.VerifyTimeWindow(q, vo)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ver.VerifyTimeWindow(q, dec)
					if err != nil {
						t.Fatalf("decoded VO rejected: %v", err)
					}
					if len(got) != len(want) {
						t.Fatalf("decoded VO yields %d results, want %d", len(got), len(want))
					}
					for i := range got {
						if got[i].Hash() != want[i].Hash() {
							t.Fatalf("result %d differs after round-trip", i)
						}
					}
				})
			}
		}
	}
}

func TestVOCodecRejectsMalformed(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, _ := buildTestChain(t, acc, ModeIntra, 2)
	vo, err := node.SP(false).TimeWindowQuery(context.Background(), sedanBenzQuery(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeVO(acc, vo)

	t.Run("truncations", func(t *testing.T) {
		// Every strict prefix must be rejected, never panic.
		for n := 0; n < len(enc); n++ {
			if _, err := DecodeVO(acc, enc[:n]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", n)
			}
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		if _, err := DecodeVO(acc, append(append([]byte{}, enc...), 0xAB)); err == nil {
			t.Error("trailing byte accepted")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte{}, enc...)
		bad[0] ^= 0xFF
		if _, err := DecodeVO(acc, bad); !errors.Is(err, ErrVODecode) {
			t.Errorf("bad magic: %v", err)
		}
	})
	t.Run("forged-counts", func(t *testing.T) {
		// Blow up the block count field; the decoder must fail without
		// attempting a giant allocation.
		bad := append([]byte{}, enc...)
		bad[4], bad[5], bad[6], bad[7] = 0xFF, 0xFF, 0xFF, 0xFF
		if _, err := DecodeVO(acc, bad); !errors.Is(err, ErrVODecode) {
			t.Errorf("forged count: %v", err)
		}
	})
}

// TestEncodeVOMalformedShapes pins that encoding (and therefore
// SizeBytes, which clients call on untrusted VOs before verification)
// never panics on hostile in-memory shapes — nil result objects, nil
// expand children, unknown node kinds. Such shapes must serialize to
// encodings the decoder rejects rather than crash the light client.
func TestEncodeVOMalformedShapes(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, _ := buildTestChain(t, acc, ModeIntra, 2)
	q := sedanBenzQuery(0, 1)
	shapes := []struct {
		name   string
		mutate func(vo *VO)
	}{
		{"nil-result-object", func(vo *VO) {
			for _, n := range collectNodes(vo, KindResult) {
				n.Obj = nil
			}
		}},
		{"nil-expand-children", func(vo *VO) {
			for _, n := range collectNodes(vo, KindExpand) {
				n.Left, n.Right = nil, nil
			}
		}},
		{"unknown-kind", func(vo *VO) {
			if vo.Blocks[0].Tree != nil {
				vo.Blocks[0].Tree.Kind = NodeKind(42)
			}
		}},
		{"empty-entry", func(vo *VO) {
			vo.Blocks[0].Tree = nil
			vo.Blocks[0].Skip = nil
		}},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			s.mutate(vo)
			if n := vo.SizeBytes(acc); n < 0 {
				t.Errorf("negative size %d", n)
			}
			enc := EncodeVO(acc, vo) // must not panic
			if len(enc) == 0 {
				t.Error("empty encoding")
			}
		})
	}
}

// TestSizeBytesMatchesCodec pins the SizeBytes definition: the exact
// wire length minus the result payloads — in particular the skip-VO
// sections must be fully counted.
func TestSizeBytesMatchesCodec(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, _ := buildTestChain(t, acc, ModeBoth, 8)
	q := Query{StartBlock: 0, EndBlock: 7, Bool: CNF{KeywordClause("tesla")}, Width: testWidth}
	vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	hasSkip := false
	for i := range vo.Blocks {
		if vo.Blocks[i].Skip != nil {
			hasSkip = true
		}
	}
	if !hasSkip {
		t.Fatal("test chain produced no skip entries")
	}
	objBytes := 0
	for _, o := range vo.Results() {
		objBytes += encodedObjectSize(&o)
	}
	if got, want := vo.SizeBytes(acc), len(EncodeVO(acc, vo))-objBytes; got != want {
		t.Fatalf("SizeBytes = %d, want wire length minus payloads = %d", got, want)
	}
	// Dropping the skip sections must shrink the reported size: the
	// skip-VO section is counted.
	trimmed := *vo
	trimmed.Blocks = nil
	for _, b := range vo.Blocks {
		if b.Skip == nil {
			trimmed.Blocks = append(trimmed.Blocks, b)
		}
	}
	if trimmed.SizeBytes(acc) >= vo.SizeBytes(acc) {
		t.Error("removing skip entries did not shrink SizeBytes")
	}
}

// goldenCase is one pinned (preset, accumulator) configuration. The
// fixtures freeze both the canonical VO wire bytes and the header
// bytes, so an EC, pairing, or encoding refactor that silently changes
// any serialized artifact fails here instead of in production.
type goldenCase struct {
	preset string
	acc    string
}

func (g goldenCase) name() string { return g.preset + "_" + g.acc }

// build deterministically reconstructs the golden chain and VO.
func (g goldenCase) build(t testing.TB) (accumulator.Accumulator, *FullNode, []chain.Header, *VO) {
	t.Helper()
	node := g.mine(t, storage.NewNull())
	vo, err := node.SP(g.acc == "acc2").TimeWindowQuery(context.Background(), sedanBenzQuery(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	return node.Acc(), node, node.Store.Headers(), vo
}

// mine deterministically mines the golden chain onto be.
func (g goldenCase) mine(t testing.TB, be storage.Backend) *FullNode {
	t.Helper()
	pr := pairing.ByName(g.preset)
	var acc accumulator.Accumulator
	switch g.acc {
	case "acc1":
		acc = accumulator.KeyGenCon1Deterministic(pr, 256, []byte("golden"))
	case "acc2":
		acc = accumulator.KeyGenCon2Deterministic(pr, 128, accumulator.HashEncoder{Q: 128}, []byte("golden"))
	default:
		t.Fatalf("unknown golden accumulator %q", g.acc)
	}
	node, err := NewFullNodeOn(0, &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth}, be)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	return node
}

func goldenPath(t testing.TB, name string) string {
	t.Helper()
	return filepath.Join("testdata", name)
}

// TestGoldenVectors pins the VO wire format and the header encoding
// for both accumulators on the toy preset and (full runs only) the
// default preset. Regenerate with `go test -run TestGoldenVectors
// -update ./internal/core/` after an intentional format change.
func TestGoldenVectors(t *testing.T) {
	cases := []goldenCase{
		{"toy", "acc1"},
		{"toy", "acc2"},
	}
	if !testing.Short() {
		cases = append(cases, goldenCase{"default", "acc2"})
	}
	for _, g := range cases {
		t.Run(g.name(), func(t *testing.T) {
			acc, _, headers, vo := g.build(t)
			voBytes := EncodeVO(acc, vo)
			var hdrBytes []byte
			for _, h := range headers {
				hdrBytes = append(hdrBytes, h.Bytes()...)
			}
			voPath := goldenPath(t, "golden_vo_"+g.name()+".bin")
			hdrPath := goldenPath(t, "golden_headers_"+g.name()+".bin")
			if *updateGolden {
				if err := os.WriteFile(voPath, voBytes, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(hdrPath, hdrBytes, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s (%d B) and %s (%d B)", voPath, len(voBytes), hdrPath, len(hdrBytes))
				return
			}
			wantVO, err := os.ReadFile(voPath)
			if err != nil {
				t.Fatalf("missing fixture (run with -update to create): %v", err)
			}
			wantHdr, err := os.ReadFile(hdrPath)
			if err != nil {
				t.Fatalf("missing fixture (run with -update to create): %v", err)
			}
			if !bytes.Equal(hdrBytes, wantHdr) {
				t.Errorf("header bytes diverge from golden fixture: the header wire format changed")
			}
			if !bytes.Equal(voBytes, wantVO) {
				t.Errorf("VO bytes diverge from golden fixture: the VO wire format or a serialized group element changed")
			}
			// The committed fixture itself must decode and verify — the
			// fixtures stay usable as cross-version seeds.
			dec, err := DecodeVO(acc, wantVO)
			if err != nil {
				t.Fatalf("golden VO no longer decodes: %v", err)
			}
			light := chain.NewLightStore(0)
			if err := light.Sync(headers); err != nil {
				t.Fatal(err)
			}
			for _, seq := range []bool{false, true} {
				ver := &Verifier{Acc: acc, Light: light, Sequential: seq}
				if _, err := ver.VerifyTimeWindow(sedanBenzQuery(0, 4), dec); err != nil {
					t.Fatalf("golden VO rejected (sequential=%v): %v", seq, err)
				}
			}
		})
	}
}
