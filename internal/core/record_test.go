package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/storage"
)

// TestGoldenRecords pins the record format on the golden chains of
// TestGoldenVectors: each chain, mined twice into fresh logs, writes
// byte-identical logs whose records hash to the SHA-256 digests in
// testdata/golden_record_digests.txt. Regenerate with `go test -run
// TestGoldenRecords -update ./internal/core/` after an intentional
// format change.
func TestGoldenRecords(t *testing.T) {
	cases := []goldenCase{{"toy", "acc1"}, {"toy", "acc2"}}
	if !testing.Short() {
		cases = append(cases, goldenCase{"default", "acc2"})
	}
	var lines []string
	for _, g := range cases {
		first, second := storage.NewMemory(), storage.NewMemory()
		g.mine(t, first)
		g.mine(t, second)
		for h := 0; h < first.Len(); h++ {
			a, err := first.Read(h)
			if err != nil {
				t.Fatal(err)
			}
			b, err := second.Read(h)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: block %d's record differs between two minings of one chain", g.name(), h)
			}
			lines = append(lines, fmt.Sprintf("%s %d %x", g.name(), h, sha256.Sum256(a)))
		}
	}
	path := goldenPath(t, "golden_record_digests.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d records)", path, len(lines))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	want := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		want[l] = true
	}
	if !testing.Short() && len(want) != len(lines) {
		t.Fatalf("%d golden records, the chains wrote %d", len(want), len(lines))
	}
	for _, l := range lines {
		if !want[l] {
			t.Errorf("record %q is not in the golden fixture: the record format or a stored element changed", l)
		}
	}
}

// TestRecordNamesEachObjectOnce: a block holding identical objects is
// stored, reopened and paged in like any other, its record
// re-encoding to the same bytes; and the encoder refuses an ADS whose
// leaves do not name the block's objects exactly once, rather than
// guess.
func TestRecordNamesEachObjectOnce(t *testing.T) {
	b := &Builder{Acc: testAccs(t)["acc2"], Mode: ModeIntra, Width: testWidth}
	mem := storage.NewMemory()
	node, err := NewFullNodeOn(0, b, mem)
	if err != nil {
		t.Fatal(err)
	}
	cars := carObjects(0)
	objs := []chain.Object{cars[1], cars[0], cars[1], cars[2], cars[1]}
	blk, err := node.MineBlock(objs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := mem.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := NewFullNodeOn(0, b, mem)
	if err != nil {
		t.Fatal(err)
	}
	ads := mustADS(t, reopened, 0)
	stored, err := reopened.Store.BlockAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stored.Objects, blk.Objects) {
		t.Fatal("reopened block's objects differ from the mined ones")
	}
	if re, err := EncodeChainRecord(stored, ads); err != nil || !bytes.Equal(re, rec) {
		t.Fatalf("paged-in record re-encodes to other bytes (%v)", err)
	}

	for name, objs := range map[string][]chain.Object{
		"a leaf's object missing": {cars[1], cars[0], cars[3], cars[2], cars[1]},
		"an object no leaf":       append(slices.Clone(objs), cars[3]),
		"one copy too few":        objs[1:],
	} {
		if _, err := EncodeChainRecord(&chain.Block{Header: blk.Header, Objects: objs}, ads); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}
