package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/crypto/ec"
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

// TestVerifySkipRejectsOneMalformedElement: a skip whose digest alone,
// or whose proof alone, is off the curve fails the walk with the
// malformed-elements soundness error, before any pairing runs. An
// off-curve digest beside an honest proof must not get as far as the
// skip-list root, whose mismatch would report ErrCompleteness.
func TestVerifySkipRejectsOneMalformedElement(t *testing.T) {
	offCurve := ec.Point{} // (0, 0) fails y² = x³ + 1
	tampers := []struct {
		name  string
		apply func(s *SkipVO)
	}{
		{"digest", func(s *SkipVO) { s.Digest.A = offCurve }},
		{"proof", func(s *SkipVO) { s.Proof.F1 = offCurve }},
	}
	for name, acc := range testAccs(t) {
		node, light := buildTestChain(t, acc, ModeBoth, 8)
		q := Query{StartBlock: 0, EndBlock: 7, Bool: CNF{KeywordClause("tesla")}, Width: testWidth}
		for _, tc := range tampers {
			for _, seq := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/sequential=%v", name, tc.name, seq), func(t *testing.T) {
					vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					s := firstSkip(vo)
					if s == nil {
						t.Fatal("fixture produced no skip entries")
					}
					tc.apply(s)
					counter := &countingAcc{Accumulator: acc}
					_, err = (&Verifier{Acc: counter, Light: light, Sequential: seq}).VerifyTimeWindow(q, vo)
					if !errors.Is(err, ErrSoundness) || !strings.Contains(err.Error(), "malformed group elements") {
						t.Fatalf("got %v, want the malformed-group-elements soundness error", err)
					}
					if len(counter.batches) != 0 {
						t.Fatalf("pairing batches %v ran before the rejection", counter.batches)
					}
				})
			}
		}
	}
}

// TestVerifyRejectsGroupIndexPastGroups: a proofless mismatch node
// naming the group one past the VO's last is unsound, in a VO with
// batch groups and in one without; the verifier must not index it.
func TestVerifyRejectsGroupIndexPastGroups(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeIntra, 2)
	q := sedanBenzQuery(0, 1)
	for _, batch := range []bool{false, true} {
		vo, err := node.SP(batch).TimeWindowQuery(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		n := firstMismatch(vo)
		if n == nil {
			t.Fatal("no mismatch node")
		}
		n.Proof, n.Group = nil, len(vo.Groups)
		if _, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo); !errors.Is(err, ErrSoundness) {
			t.Errorf("batch=%v, %d groups: got %v, want ErrSoundness", batch, len(vo.Groups), err)
		}
	}
}

// markedAcc fails exactly the checks whose proof's F1 is the point at
// infinity, and counts the batches it verifies.
type markedAcc struct {
	accumulator.Accumulator
	batches atomic.Int64
}

func (*markedAcc) VerifyDisjoint(_, _ accumulator.Acc, p accumulator.Proof) bool { return !p.F1.Inf }

func (m *markedAcc) VerifyDisjointBatch(checks []accumulator.DisjointCheck) bool {
	m.batches.Add(1)
	for _, c := range checks {
		if c.Proof.F1.Inf {
			return false
		}
	}
	return true
}

// TestFlushSurfacesFirstFailingCheck: a batched flush of several
// chunks returns the error of the first failing check in collection
// order, wherever the failures sit and however the chunks are spread
// over goroutines, and a flush on one goroutine verifies no chunk
// after the first that fails.
func TestFlushSurfacesFirstFailingCheck(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const n = 4*flushBatchSize - 10
	for _, bad := range [][]int{nil, {5}, {n - 1}, {3*flushBatchSize + 1, flushBatchSize, 2 * flushBatchSize}} {
		checks := make([]pendingCheck, n)
		for i := range checks {
			checks[i].err = fmt.Errorf("check %d", i)
		}
		for _, i := range bad {
			checks[i].check.Proof.F1.Inf = true
		}
		var want error
		chunks := int64(n+flushBatchSize-1) / flushBatchSize
		if len(bad) > 0 {
			first := slices.Min(bad)
			want, chunks = checks[first].err, int64(first/flushBatchSize+1)
		}
		for _, procs := range []int{4, 1} {
			runtime.GOMAXPROCS(procs)
			for range 20 {
				acc := &markedAcc{}
				if got := (&Verifier{Acc: acc}).flush(checks); !errors.Is(got, want) {
					t.Fatalf("failing %v, GOMAXPROCS %d: got %v, want %v", bad, procs, got, want)
				}
				if got := acc.batches.Load(); procs == 1 && got != chunks {
					t.Fatalf("failing %v on one goroutine: %d chunks verified, want %d", bad, got, chunks)
				}
			}
		}
	}
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
	// Rewrite a group to a clause outside the query: its members cite
	// it by index alone.
	vo.Groups[0].Clause = KeywordClause("spaceship")
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

// foreignView is a node's chain view that answers HeaderAt with a
// foreign block, a sibling of the real one, at the heights in lie.
type foreignView struct {
	*FullNode
	lie []int
}

func (v foreignView) HeaderAt(h int) (chain.Header, error) {
	hdr, err := v.FullNode.HeaderAt(h)
	if slices.Contains(v.lie, h) {
		hdr.TS++
	}
	return hdr, err
}

// TestVerifyRejectsForeignSkipLanding mines a block whose header
// commits skip entries that land on foreign blocks: its ADS is built
// on a view that lies about the landing headers at heights 4 and 0.
// The SP cites those entries honestly, so SkipListRoot matches, and
// only the landing check can tell: the verifier must reject the jump
// landing above genesis and the one landing on genesis.
func TestVerifyRejectsForeignSkipLanding(t *testing.T) {
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth}
	node := NewFullNode(0, b)
	for i := 0; i < 8; i++ {
		if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	objs := carObjects(80)
	ads, err := b.BuildBlock(8, objs, foreignView{node, []int{0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := chain.SolvePoW(chain.Header{
		Height:       8,
		TS:           1008,
		PrevHash:     node.Store.Tip().Header.Hash(),
		MerkleRoot:   ads.MerkleRoot(),
		SkipListRoot: ads.SkipListRoot(acc),
	}, node.Store.Difficulty())
	if err != nil {
		t.Fatal(err)
	}
	node.mu.Lock()
	err = node.commitLocked(&chain.Block{Header: hdr, Objects: objs}, ads)
	node.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	light := chain.NewLightStore(0)
	if err := light.Sync(node.Store.Headers()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ start, distance int }{{5, 4}, {1, 8}} {
		t.Run(fmt.Sprintf("land-%d", 8-tc.distance), func(t *testing.T) {
			q := Query{StartBlock: tc.start, EndBlock: 8, Bool: CNF{KeywordClause("tesla")}, Width: testWidth}
			vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if s := vo.Blocks[0].Skip; s == nil || s.Distance != tc.distance {
				t.Fatalf("VO opens with %+v, want the distance-%d skip", vo.Blocks[0], tc.distance)
			}
			for _, seq := range []bool{true, false} {
				v := &Verifier{Acc: acc, Light: light, Sequential: seq}
				if _, err := v.VerifyTimeWindow(q, vo); !errors.Is(err, ErrCompleteness) {
					t.Errorf("sequential=%v: err = %v, want ErrCompleteness", seq, err)
				}
			}
		})
	}
}
