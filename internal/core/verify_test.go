package core

import (
	"context"
	"errors"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
)

// surgicalVO builds a fresh honest VO for mutation.
func surgicalVO(t *testing.T, acc accumulator.Accumulator, mode IndexMode, blocks int, q Query) (*FullNode, *chain.LightStore, *VO) {
	t.Helper()
	node, light := buildTestChain(t, acc, mode, blocks)
	vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return node, light, vo
}

func mustFail(t *testing.T, acc accumulator.Accumulator, light *chain.LightStore, q Query, vo *VO, why string) {
	t.Helper()
	if _, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo); err == nil {
		t.Fatalf("accepted VO with %s", why)
	}
}

func firstMismatch(vo *VO) *NodeVO {
	var out *NodeVO
	var walk func(n *NodeVO)
	walk = func(n *NodeVO) {
		if n == nil || out != nil {
			return
		}
		if n.Kind == KindMismatch {
			out = n
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	for i := range vo.Blocks {
		walk(vo.Blocks[i].Tree)
	}
	return out
}

func TestVerifyRejectsMalformedShapes(t *testing.T) {
	acc := testAccs(t)["acc2"]
	q := sedanBenzQuery(0, 1)

	t.Run("result-without-object", func(t *testing.T) {
		_, light, vo := surgicalVO(t, acc, ModeIntra, 2, q)
		var hit bool
		var walk func(n *NodeVO)
		walk = func(n *NodeVO) {
			if n == nil || hit {
				return
			}
			if n.Kind == KindResult {
				n.Obj = nil
				hit = true
			}
			walk(n.Left)
			walk(n.Right)
		}
		for i := range vo.Blocks {
			walk(vo.Blocks[i].Tree)
		}
		mustFail(t, acc, light, q, vo, "nil result object")
	})

	t.Run("expand-missing-children", func(t *testing.T) {
		_, light, vo := surgicalVO(t, acc, ModeIntra, 2, q)
		var hit bool
		var walk func(n *NodeVO)
		walk = func(n *NodeVO) {
			if n == nil || hit {
				return
			}
			if n.Kind == KindExpand {
				n.Left, n.Right = nil, nil
				hit = true
				return
			}
			walk(n.Left)
			walk(n.Right)
		}
		for i := range vo.Blocks {
			walk(vo.Blocks[i].Tree)
		}
		if !hit {
			t.Skip("no expand node in this VO")
		}
		mustFail(t, acc, light, q, vo, "childless expand node")
	})

	t.Run("mismatch-without-proof-or-group", func(t *testing.T) {
		_, light, vo := surgicalVO(t, acc, ModeIntra, 2, q)
		n := firstMismatch(vo)
		if n == nil {
			t.Fatal("no mismatch node")
		}
		n.Proof = nil
		n.Group = -1
		mustFail(t, acc, light, q, vo, "proofless mismatch")
	})

	t.Run("mismatch-digest-stripped", func(t *testing.T) {
		_, light, vo := surgicalVO(t, acc, ModeIntra, 2, q)
		n := firstMismatch(vo)
		n.HasDigest = false
		mustFail(t, acc, light, q, vo, "digestless mismatch")
	})

	t.Run("group-out-of-range", func(t *testing.T) {
		_, light, vo := surgicalVO(t, acc, ModeIntra, 2, q)
		n := firstMismatch(vo)
		n.Proof = nil
		n.Group = 99
		mustFail(t, acc, light, q, vo, "dangling group reference")
	})

	t.Run("unknown-node-kind", func(t *testing.T) {
		_, light, vo := surgicalVO(t, acc, ModeIntra, 2, q)
		n := firstMismatch(vo)
		n.Kind = NodeKind(42)
		mustFail(t, acc, light, q, vo, "unknown node kind")
	})

	t.Run("wrong-height-order", func(t *testing.T) {
		_, light, vo := surgicalVO(t, acc, ModeIntra, 2, q)
		if len(vo.Blocks) < 2 {
			t.Skip("need two blocks")
		}
		vo.Blocks[0], vo.Blocks[1] = vo.Blocks[1], vo.Blocks[0]
		mustFail(t, acc, light, q, vo, "swapped block order")
	})

	t.Run("surplus-entries", func(t *testing.T) {
		_, light, vo := surgicalVO(t, acc, ModeIntra, 2, q)
		vo.Blocks = append(vo.Blocks, vo.Blocks[len(vo.Blocks)-1])
		mustFail(t, acc, light, q, vo, "surplus trailing entry")
	})

	t.Run("empty-entry", func(t *testing.T) {
		_, light, vo := surgicalVO(t, acc, ModeIntra, 2, q)
		vo.Blocks[0].Tree = nil
		vo.Blocks[0].Skip = nil
		mustFail(t, acc, light, q, vo, "entry with neither skip nor tree")
	})
}

func TestVerifyRejectsOffCurveElements(t *testing.T) {
	// Malformed group elements from the wire must be rejected before
	// any pairing math runs.
	acc := testAccs(t)["acc2"]
	q := sedanBenzQuery(0, 0)
	_, light, vo := surgicalVO(t, acc, ModeIntra, 1, q)
	n := firstMismatch(vo)
	if n == nil {
		t.Fatal("no mismatch node")
	}
	// Force an off-curve point: (0, 0) fails y² = x³ + 1.
	forged := accumulator.Acc{}
	forged.A.Inf = false
	forged.B = n.Digest.B
	n.Digest = forged
	mustFail(t, acc, light, q, vo, "off-curve digest")
}

func TestVerifyBatchGroupMismatchClause(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeIntra, 2)
	q := sedanBenzQuery(0, 1)
	vo, err := node.SP(true).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(vo.Groups) == 0 {
		t.Skip("no batch groups")
	}
	// Member node claims a different clause than its group.
	n := firstMismatch(vo)
	if n == nil || n.Group < 0 {
		t.Skip("no grouped mismatch")
	}
	n.Clause = KeywordClause("forged")
	mustFail(t, acc, light, q, vo, "node clause diverging from group")
}

func TestVerifyBatchGroupForeignClause(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeIntra, 2)
	q := sedanBenzQuery(0, 1)
	vo, err := node.SP(true).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(vo.Groups) == 0 {
		t.Skip("no batch groups")
	}
	// Rewrite a whole group (and its members) to a clause outside the
	// query.
	foreign := KeywordClause("spaceship")
	gi := -1
	for i := range vo.Groups {
		vo.Groups[i].Clause = foreign
		gi = i
		break
	}
	var walk func(n *NodeVO)
	walk = func(n *NodeVO) {
		if n == nil {
			return
		}
		if n.Kind == KindMismatch && n.Group == gi {
			n.Clause = foreign
		}
		walk(n.Left)
		walk(n.Right)
	}
	for i := range vo.Blocks {
		walk(vo.Blocks[i].Tree)
	}
	mustFail(t, acc, light, q, vo, "foreign batch clause")
}

func TestVerifyErrorTaxonomy(t *testing.T) {
	// ErrSoundness and ErrCompleteness must be distinguishable.
	acc := testAccs(t)["acc2"]
	q := sedanBenzQuery(0, 1)
	_, light, vo := surgicalVO(t, acc, ModeIntra, 2, q)
	vo.Blocks = vo.Blocks[:1]
	_, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
	if !errors.Is(err, ErrCompleteness) {
		t.Errorf("truncation should be completeness, got %v", err)
	}
	if errors.Is(err, ErrSoundness) {
		t.Error("error matched both categories")
	}
}
