package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
)

func metaTestBuilder() *core.Builder {
	acc := accumulator.KeyGenCon2Deterministic(pairing.Toy(), 64, accumulator.HashEncoder{Q: 64}, []byte("meta"))
	return &core.Builder{Acc: acc, Mode: core.ModeIntra, Width: 4}
}

// TestTornTopologyRecordRecovers is the regression test for the bricked
// store: a crash inside the old bare os.WriteFile left an empty SHARDS
// file, which every later Open rejected as malformed. Open must recover
// from that remnant (and from a temp file stranded by a crash of the
// new writer), leave a whole record behind, and still refuse an empty
// record that sits beside shard data.
func TestTornTopologyRecordRecovers(t *testing.T) {
	b := metaTestBuilder()
	dir := t.TempDir()
	for _, remnant := range []string{metaFile, metaFile + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, remnant), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	node, _, err := Open(0, b, dir, Options{Shards: 2, Band: 4})
	if err != nil {
		t.Fatalf("Open over a torn topology record: %v", err)
	}
	node.Close()
	if shards, band, ok, err := readMeta(dir); err != nil || !ok || shards != 2 || band != 4 {
		t.Fatalf("topology record after recovery = %d/%d ok=%v err=%v, want 2/4", shards, band, ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, metaFile+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp record left behind: %v", err)
	}

	// An empty record next to existing shard directories is not a torn
	// create — placement would be guesswork — and stays a hard error.
	if err := os.Truncate(filepath.Join(dir, metaFile), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(0, b, dir, Options{Shards: 2, Band: 4}); err == nil {
		t.Fatal("empty topology record beside shard data accepted")
	}
}

// FuzzShardMeta feeds the topology-record parser arbitrary bytes: it
// must never panic, must only accept positive values, and whatever it
// accepts must survive a rewrite in the canonical form.
func FuzzShardMeta(f *testing.F) {
	for _, seed := range []string{"shards 2 band 8\n", "shards 1 band 1", "", "shards 0 band 8\n", "shards -3 band 2\n", "band 8 shards 2\n", "shards 2 band\n", "shards 99999999999999999999 band 1\n"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		shards, band, err := parseMeta(data)
		if err != nil {
			return
		}
		if shards < 1 || band < 1 {
			t.Fatalf("accepted non-positive topology %d/%d from %q", shards, band, data)
		}
		s2, b2, err := parseMeta([]byte(fmt.Sprintf("shards %d band %d\n", shards, band)))
		if err != nil || s2 != shards || b2 != band {
			t.Fatalf("canonical rewrite of %q reparsed as %d/%d, %v", data, s2, b2, err)
		}
	})
}
