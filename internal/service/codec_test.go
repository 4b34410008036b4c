package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"go/parser"
	"go/token"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
)

// TestVOFrameRoundTrip: a VO crosses a real server and client as its
// canonical bytes, decodes with the codec the client builds from the
// SP's hello, and still verifies — under both constructions, with and
// without skip entries.
func TestVOFrameRoundTrip(t *testing.T) {
	pr := pairing.Toy()
	accs := map[string]accumulator.Accumulator{
		"acc1": accumulator.KeyGenCon1Deterministic(pr, 256, []byte("frame")),
		"acc2": accumulator.KeyGenCon2Deterministic(pr, 512, accumulator.HashEncoder{Q: 512}, []byte("frame")),
	}
	for name, acc := range accs {
		for _, mode := range []core.IndexMode{core.ModeIntra, core.ModeBoth} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				node := core.NewFullNode(0, &core.Builder{Acc: acc, Mode: mode, SkipSize: 2, Width: 4})
				for i := 0; i < 5; i++ {
					objs := []chain.Object{
						{ID: chain.ObjectID(i*10 + 1), TS: int64(i), V: []int64{3}, W: []string{"sedan", "benz"}},
						{ID: chain.ObjectID(i*10 + 2), TS: int64(i), V: []int64{7}, W: []string{"van", "audi"}},
					}
					if _, err := node.MineBlock(objs, int64(i)); err != nil {
						t.Fatal(err)
					}
				}
				srv := NewServer(node)
				addr, err := srv.Serve("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				cli, err := Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				defer cli.Close()
				light := chain.NewLightStore(0)
				if err := cli.SyncHeaders(context.Background(), light); err != nil {
					t.Fatal(err)
				}

				q := core.Query{EndBlock: 4, Bool: core.CNF{core.KeywordClause("sedan"), core.KeywordClause("benz", "bmw")}, Width: 4}
				want, err := node.TimeWindowParts(context.Background(), q, false)
				if err != nil {
					t.Fatal(err)
				}
				vo := queryVO(t, cli, q, false)
				if !bytes.Equal(core.EncodeVO(acc, vo), core.EncodeVO(acc, want[0].VO)) {
					t.Fatal("the VO the client decoded is not the SP's canonical VO")
				}
				if vo.SizeBytes(acc) != want[0].VO.SizeBytes(acc) {
					t.Error("VO size changed across the wire")
				}
				res, err := (&core.Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
				if err != nil {
					t.Fatalf("decoded VO rejected: %v", err)
				}
				if len(res) != 5 {
					t.Fatalf("results %d, want 5", len(res))
				}
			})
		}
	}
}

// TestNoGobInService: every binary format of the module — service
// frames, VOs, queries and chain records — is built on internal/wire;
// no program file of the module may fall back to gob. It walks the
// whole module from its root, skipping test files, testdata and the
// nested benchmark module.
func TestNoGobInService(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root %s: %v", root, err)
	}
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/gob" {
				t.Errorf("%s imports encoding/gob", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatalf("no program files under %s", root)
	}
}

// gobFrame is a frame as builds that framed gob wrote it: the length
// prefix, then a self-contained gob stream of v.
func gobFrame(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(make([]byte, framePrefixLen))
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	binary.BigEndian.PutUint32(out, uint32(len(out)-framePrefixLen))
	return out
}

// The shapes of the gob-era messages, as an old peer encoded them.
type (
	gobRequest struct {
		Seq  uint64
		Kind string
	}
	gobResponse struct {
		Seq uint64
		Err string
	}
)

// TestClientRefusesIncompatibleSP: an SP that answers in gob, or
// whose hello names a protocol version, preset or construction this
// build does not know, fails the call with ErrIncompatible, and the
// client does not retry it.
func TestClientRefusesIncompatibleSP(t *testing.T) {
	cases := []struct {
		name  string
		first []byte
	}{
		// A fresh client's first request is Seq 1.
		{"gob-sp", gobFrame(t, gobResponse{Seq: 1, Err: "old"})},
		{"unknown-version", helloFrame(t, &hello{Version: protocolVersion + 1, Construction: "acc2", Preset: "toy"})},
		{"unknown-preset", helloFrame(t, &hello{Version: protocolVersion, Construction: "acc2", Preset: "bn254"})},
		{"unknown-construction", helloFrame(t, &hello{Version: protocolVersion, Construction: "acc3", Preset: "toy"})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					go func() {
						defer conn.Close()
						fc := newFrameConn(conn, 0, 0)
						// A gob-era SP speaks only once it has read a
						// request; the frame it reads is not gob, but
						// the test lets it answer to show what the
						// client makes of the answer.
						var req Request
						if err := fc.readFrame(&req); err != nil {
							return
						}
						conn.Write(tc.first)
						time.Sleep(time.Second)
					}()
				}
			}()
			cli, err := Dial(ln.Addr().String(), ClientConfig{RPCTimeout: 5 * time.Second, Retry: RetryPolicy{Attempts: 3}})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			_, err = cli.Headers(context.Background(), 0)
			if !errors.Is(err, ErrIncompatible) {
				t.Fatalf("want ErrIncompatible, got %v", err)
			}
			if cli.Retries() != 0 {
				t.Fatalf("an incompatible SP was retried %d times", cli.Retries())
			}
		})
	}
}

func helloFrame(t *testing.T, h *hello) []byte {
	t.Helper()
	frame, err := encodeFrame(h)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestServerRefusesGobClient: a client that frames gob is refused: its
// request decodes to ErrIncompatible and the SP drops the connection
// without answering.
func TestServerRefusesGobClient(t *testing.T) {
	old := gobFrame(t, gobRequest{Seq: 1, Kind: "headers"})
	if err := decodeFrame(old[framePrefixLen:], new(Request)); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("gob request decoded to %v, want ErrIncompatible", err)
	}
	_, addr, _ := startServer(t)
	conn, fc := dialRaw(t, addr)
	if _, err := conn.Write(old); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if body, err := fc.readBody(); err == nil {
		t.Fatalf("SP answered a gob request with a %d-byte frame", len(body))
	}
}
