package mhtree

import (
	"fmt"
	"testing"
)

func leaves(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	return out
}

// root returns a tree's root digest.
func root(t *Tree) Digest { return t.levels[len(t.levels)-1][0] }

// TestBuildLevels checks the tree SizeBytes counts: one digest per
// leaf, then each level's nodes hashing pairs of the level below, an
// odd last node promoted unchanged, up to a single root.
func TestBuildLevels(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 15, 16, 17} {
		tr := Build(leaves(n))
		if len(tr.levels[0]) != n {
			t.Fatalf("n=%d: %d leaf digests", n, len(tr.levels[0]))
		}
		for i, l := range leaves(n) {
			if tr.levels[0][i] != hashLeaf(l) {
				t.Fatalf("n=%d: leaf %d's digest is not its hash", n, i)
			}
		}
		for i := 1; i < len(tr.levels); i++ {
			below, lvl := tr.levels[i-1], tr.levels[i]
			if len(lvl) != (len(below)+1)/2 {
				t.Fatalf("n=%d: level %d has %d digests over %d", n, i, len(lvl), len(below))
			}
			for j, d := range lvl {
				want := below[2*j]
				if 2*j+1 < len(below) {
					want = hashNode(below[2*j], below[2*j+1])
				}
				if d != want {
					t.Fatalf("n=%d: level %d node %d is not its children's node", n, i, j)
				}
			}
		}
		if top := tr.levels[len(tr.levels)-1]; len(top) != 1 {
			t.Fatalf("n=%d: %d roots", n, len(top))
		}
	}
}

func TestRootChangesWithContent(t *testing.T) {
	a := root(Build(leaves(4)))
	ls := leaves(4)
	ls[2] = []byte("different")
	b := root(Build(ls))
	if a == b {
		t.Fatal("root unchanged after leaf modification")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := Build(nil)
	if len(tr.levels) != 1 || len(tr.levels[0]) != 1 {
		t.Fatal("empty tree is not one sentinel digest")
	}
	// Deterministic sentinel.
	if root(tr) != root(Build([][]byte{})) {
		t.Fatal("empty roots differ")
	}
}

func TestLeafNodeDomainSeparation(t *testing.T) {
	// A single-leaf tree whose leaf equals an internal-node preimage
	// must not collide with the two-leaf tree producing that node.
	two := Build(leaves(2))
	l0, l1 := hashLeaf([]byte("leaf-0")), hashLeaf([]byte("leaf-1"))
	preimage := append(append([]byte{}, l0[:]...), l1[:]...)
	one := Build([][]byte{preimage})
	if root(one) == root(two) {
		t.Fatal("second-preimage across levels: domain separation broken")
	}
}

func TestMultiAttrMHTCounts(t *testing.T) {
	rows := [][]int64{{3, 1}, {1, 2}, {2, 0}}
	m := BuildMultiAttr(rows)
	if m.Dim != 2 {
		t.Fatalf("dim %d", m.Dim)
	}
	if len(m.Trees) != 3 { // 2^2-1 combinations
		t.Fatalf("want 3 trees, got %d", len(m.Trees))
	}
	if m.SizeBytes() <= 0 {
		t.Fatal("size should be positive")
	}
	// Size grows exponentially with dimension: compare d=2 vs d=4.
	rows4 := [][]int64{{1, 2, 3, 4}, {4, 3, 2, 1}, {2, 2, 2, 2}}
	m4 := BuildMultiAttr(rows4)
	if len(m4.Trees) != 15 {
		t.Fatalf("want 15 trees, got %d", len(m4.Trees))
	}
	if m4.SizeBytes() <= m.SizeBytes() {
		t.Fatal("ADS size should grow with dimensionality")
	}
}

func TestMultiAttrMHTEmpty(t *testing.T) {
	m := BuildMultiAttr(nil)
	if len(m.Trees) != 0 || m.SizeBytes() != 0 {
		t.Fatal("empty input should build nothing")
	}
}
