package core

import (
	"context"
	"errors"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
)

// This file is the systematic adversarial harness for the verifier:
// every VO component is tampered with, one field at a time, and every
// mutation must be rejected by BOTH flush modes — the sequential
// baseline and the batched pairing engine. A mutation slipping past
// either one is a soundness break; the two modes disagreeing breaks
// the bit-identical-accept/reject contract of the batched verifier.

// advCtx bundles one adversarial scenario's fixture.
type advCtx struct {
	acc   accumulator.Accumulator
	node  *FullNode
	light *chain.LightStore
	q     Query
	vo    *VO
}

// mutation tampers with a fresh VO; it returns false when the VO lacks
// the component it targets (the case is then skipped).
type mutation struct {
	name  string
	apply func(t *testing.T, c *advCtx) bool
}

// collectNodes gathers all tree nodes of the given kind.
func collectNodes(vo *VO, kind NodeKind) []*NodeVO {
	var out []*NodeVO
	var walk func(n *NodeVO)
	walk = func(n *NodeVO) {
		if n == nil {
			return
		}
		if n.Kind == kind {
			out = append(out, n)
		}
		walk(n.Left)
		walk(n.Right)
	}
	for i := range vo.Blocks {
		walk(vo.Blocks[i].Tree)
	}
	return out
}

func firstSkip(vo *VO) *SkipVO {
	for i := range vo.Blocks {
		if vo.Blocks[i].Skip != nil {
			return vo.Blocks[i].Skip
		}
	}
	return nil
}

// mustRejectBoth asserts that both flush modes reject the mutated VO
// with a soundness or completeness violation.
func mustRejectBoth(t *testing.T, c *advCtx, why string) {
	t.Helper()
	for _, seq := range []bool{true, false} {
		v := &Verifier{Acc: c.acc, Light: c.light, Sequential: seq}
		_, err := v.VerifyTimeWindow(c.q, c.vo)
		switch {
		case err == nil:
			t.Errorf("sequential=%v verifier accepted VO with %s", seq, why)
		case !errors.Is(err, ErrSoundness) && !errors.Is(err, ErrCompleteness):
			t.Errorf("sequential=%v verifier rejected VO with %s outside the taxonomy: %v", seq, why, err)
		}
	}
}

// treeMutations tamper with the intra-block part of the VO.
var treeMutations = []mutation{
	{"result-keyword-forged", func(t *testing.T, c *advCtx) bool {
		rs := collectNodes(c.vo, KindResult)
		if len(rs) == 0 {
			return false
		}
		// Keep the object matching the query (swap the keyword order is
		// canonicalized away; instead append a harmless keyword) so only
		// the hash chain can catch the forgery.
		rs[0].Obj.W = append(rs[0].Obj.W, "forged-extra")
		return true
	}},
	{"result-numeric-forged", func(t *testing.T, c *advCtx) bool {
		rs := collectNodes(c.vo, KindResult)
		if len(rs) == 0 {
			return false
		}
		rs[0].Obj.V[0]++
		return true
	}},
	{"result-id-forged", func(t *testing.T, c *advCtx) bool {
		rs := collectNodes(c.vo, KindResult)
		if len(rs) == 0 {
			return false
		}
		rs[0].Obj.ID++
		return true
	}},
	{"result-object-substituted", func(t *testing.T, c *advCtx) bool {
		rs := collectNodes(c.vo, KindResult)
		if len(rs) < 2 {
			return false
		}
		obj := rs[1].Obj.Clone()
		rs[0].Obj = &obj
		return true
	}},
	{"result-digest-tampered", func(t *testing.T, c *advCtx) bool {
		rs := collectNodes(c.vo, KindResult)
		ms := collectNodes(c.vo, KindMismatch)
		for _, r := range rs {
			if r.HasDigest && len(ms) > 0 {
				r.Digest = ms[0].Digest // a different on-curve digest
				return true
			}
		}
		return false
	}},
	{"mismatch-proof-point-flipped", func(t *testing.T, c *advCtx) bool {
		ms := collectNodes(c.vo, KindMismatch)
		for _, m := range ms {
			if m.Proof != nil {
				// Replace F1 with a different on-curve point (the node's
				// own digest) so validation passes but the pairing fails.
				m.Proof.F1 = m.Digest.A
				return true
			}
		}
		return false
	}},
	{"mismatch-proof-halves-swapped", func(t *testing.T, c *advCtx) bool {
		ms := collectNodes(c.vo, KindMismatch)
		for _, m := range ms {
			if m.Proof != nil && !m.Proof.F1.Equal(m.Proof.F2) {
				m.Proof.F1, m.Proof.F2 = m.Proof.F2, m.Proof.F1
				return true
			}
		}
		return false
	}},
	{"mismatch-proof-transplanted", func(t *testing.T, c *advCtx) bool {
		ms := collectNodes(c.vo, KindMismatch)
		var a, b *NodeVO
		for _, m := range ms {
			if m.Proof == nil {
				continue
			}
			if a == nil {
				a = m
				continue
			}
			// Transplant needs a donor with a different digest (same
			// digest+clause means the same statement, so the proof
			// would legitimately verify).
			if !c.acc.AccEqual(a.Digest, m.Digest) {
				b = m
				break
			}
		}
		if b == nil {
			return false
		}
		a.Proof = b.Proof
		return true
	}},
	{"mismatch-digests-swapped", func(t *testing.T, c *advCtx) bool {
		ms := collectNodes(c.vo, KindMismatch)
		var a, b *NodeVO
		for _, m := range ms {
			if a == nil {
				a = m
				continue
			}
			if !c.acc.AccEqual(a.Digest, m.Digest) {
				b = m
				break
			}
		}
		if b == nil {
			return false
		}
		a.Digest, b.Digest = b.Digest, a.Digest
		return true
	}},
	{"mismatch-clause-switched", func(t *testing.T, c *advCtx) bool {
		cnf, err := c.q.CNF()
		if err != nil || len(cnf) < 2 {
			return false
		}
		ms := collectNodes(c.vo, KindMismatch)
		for _, m := range ms {
			if m.Proof == nil {
				continue
			}
			// Claim the proof is against the query's *other* clause.
			for _, cl := range cnf {
				if !cl.Equal(m.Clause) {
					m.Clause = cl
					return true
				}
			}
		}
		return false
	}},
	{"mismatch-prehash-flipped", func(t *testing.T, c *advCtx) bool {
		ms := collectNodes(c.vo, KindMismatch)
		if len(ms) == 0 {
			return false
		}
		ms[0].PreHash[0] ^= 0xFF
		return true
	}},
	{"mismatch-digest-zeroed", func(t *testing.T, c *advCtx) bool {
		ms := collectNodes(c.vo, KindMismatch)
		if len(ms) == 0 {
			return false
		}
		ms[0].Digest = accumulator.Acc{}
		ms[0].Digest.A.Inf = true
		ms[0].Digest.B.Inf = true
		return true
	}},
	{"result-suppressed-as-mismatch", func(t *testing.T, c *advCtx) bool {
		rs := collectNodes(c.vo, KindResult)
		ms := collectNodes(c.vo, KindMismatch)
		var donor *NodeVO
		for _, m := range ms {
			if m.Proof != nil {
				donor = m
				break
			}
		}
		if len(rs) == 0 || donor == nil {
			return false
		}
		n := rs[0]
		pre := leafPreHash(n.Obj.Hash())
		n.Kind = KindMismatch
		n.PreHash = pre
		n.Clause = donor.Clause
		n.Proof = donor.Proof
		n.Digest = donor.Digest
		n.HasDigest = true
		n.Group = -1
		n.Obj = nil
		return true
	}},
	{"expand-digest-tampered", func(t *testing.T, c *advCtx) bool {
		es := collectNodes(c.vo, KindExpand)
		ms := collectNodes(c.vo, KindMismatch)
		for _, e := range es {
			if e.HasDigest && len(ms) > 0 && !c.acc.AccEqual(e.Digest, ms[0].Digest) {
				e.Digest = ms[0].Digest
				return true
			}
		}
		return false
	}},
}

// blockMutations tamper with the backward-traversal structure.
var blockMutations = []mutation{
	{"newest-block-dropped", func(t *testing.T, c *advCtx) bool {
		if len(c.vo.Blocks) < 2 {
			return false
		}
		c.vo.Blocks = c.vo.Blocks[1:]
		return true
	}},
	{"oldest-block-dropped", func(t *testing.T, c *advCtx) bool {
		if len(c.vo.Blocks) < 2 {
			return false
		}
		c.vo.Blocks = c.vo.Blocks[:len(c.vo.Blocks)-1]
		return true
	}},
	{"block-duplicated", func(t *testing.T, c *advCtx) bool {
		if len(c.vo.Blocks) == 0 {
			return false
		}
		c.vo.Blocks = append([]BlockVO{c.vo.Blocks[0]}, c.vo.Blocks...)
		return true
	}},
	{"height-shifted", func(t *testing.T, c *advCtx) bool {
		if len(c.vo.Blocks) == 0 {
			return false
		}
		c.vo.Blocks[0].Height++
		return true
	}},
	{"tree-replaced-by-foreign-block", func(t *testing.T, c *advCtx) bool {
		if len(c.vo.Blocks) < 2 || c.vo.Blocks[0].Tree == nil || c.vo.Blocks[1].Tree == nil {
			return false
		}
		c.vo.Blocks[0].Tree = c.vo.Blocks[1].Tree
		return true
	}},
}

// skipMutations tamper with inter-block jump entries.
var skipMutations = []mutation{
	{"skip-distance-overstated", func(t *testing.T, c *advCtx) bool {
		s := firstSkip(c.vo)
		if s == nil {
			return false
		}
		s.Distance *= 2
		return true
	}},
	{"skip-distance-understated", func(t *testing.T, c *advCtx) bool {
		s := firstSkip(c.vo)
		if s == nil || s.Distance < 2 {
			return false
		}
		s.Distance /= 2
		return true
	}},
	{"skip-proof-point-flipped", func(t *testing.T, c *advCtx) bool {
		s := firstSkip(c.vo)
		if s == nil {
			return false
		}
		s.Proof.F1 = s.Digest.A
		return true
	}},
	{"skip-digest-tampered", func(t *testing.T, c *advCtx) bool {
		s := firstSkip(c.vo)
		if s == nil {
			return false
		}
		s.Digest = accumulator.Acc{}
		s.Digest.A.Inf = true
		s.Digest.B.Inf = true
		return true
	}},
	{"skip-landing-hash-teleported", func(t *testing.T, c *advCtx) bool {
		s := firstSkip(c.vo)
		if s == nil {
			return false
		}
		s.PrevHash[0] ^= 0xFF
		return true
	}},
	{"skip-sibling-level-dropped", func(t *testing.T, c *advCtx) bool {
		s := firstSkip(c.vo)
		if s == nil || len(s.Siblings) == 0 {
			return false
		}
		for d := range s.Siblings {
			delete(s.Siblings, d)
			break
		}
		return true
	}},
	{"skip-sibling-hash-flipped", func(t *testing.T, c *advCtx) bool {
		s := firstSkip(c.vo)
		if s == nil || len(s.Siblings) == 0 {
			return false
		}
		for d, h := range s.Siblings {
			h[0] ^= 0xFF
			s.Siblings[d] = h
			break
		}
		return true
	}},
	{"skip-sibling-level-forged", func(t *testing.T, c *advCtx) bool {
		s := firstSkip(c.vo)
		if s == nil {
			return false
		}
		if s.Siblings == nil {
			s.Siblings = map[int]chain.Digest{}
		}
		s.Siblings[999] = chain.Digest{0xAB}
		return true
	}},
	{"skip-clause-foreign", func(t *testing.T, c *advCtx) bool {
		s := firstSkip(c.vo)
		if s == nil {
			return false
		}
		s.Clause = KeywordClause("spaceship")
		return true
	}},
}

// groupMutations tamper with the online-batched proof groups (§6.3).
var groupMutations = []mutation{
	{"group-proof-point-flipped", func(t *testing.T, c *advCtx) bool {
		if len(c.vo.Groups) == 0 {
			return false
		}
		ms := collectNodes(c.vo, KindMismatch)
		var digest *accumulator.Acc
		for _, m := range ms {
			if m.Group == 0 {
				digest = &m.Digest
				break
			}
		}
		if digest == nil {
			return false
		}
		c.vo.Groups[0].Proof.F1 = digest.A
		return true
	}},
	{"group-proofs-swapped", func(t *testing.T, c *advCtx) bool {
		if len(c.vo.Groups) < 2 {
			return false
		}
		g := c.vo.Groups
		if g[0].Proof.F1.Equal(g[1].Proof.F1) {
			return false
		}
		g[0].Proof, g[1].Proof = g[1].Proof, g[0].Proof
		return true
	}},
	{"group-member-redirected", func(t *testing.T, c *advCtx) bool {
		if len(c.vo.Groups) < 2 {
			return false
		}
		ms := collectNodes(c.vo, KindMismatch)
		for _, m := range ms {
			if m.Group == 0 {
				m.Group = 1
				return true
			}
		}
		return false
	}},
	{"group-member-detached", func(t *testing.T, c *advCtx) bool {
		// Detach one member from its group and hand it the other
		// group's aggregated proof as an individual one — the classic
		// proof-transplant move in batch mode.
		if len(c.vo.Groups) < 2 {
			return false
		}
		ms := collectNodes(c.vo, KindMismatch)
		for _, m := range ms {
			if m.Group == 0 {
				m.Cite = Cite{Group: -1, Clause: c.vo.Groups[0].Clause, Proof: &c.vo.Groups[1].Proof}
				return true
			}
		}
		return false
	}},
}

// groupedSkip returns the first skip of the VO that cites a batch
// group, or nil.
func groupedSkip(vo *VO) *SkipVO {
	for i := range vo.Blocks {
		if s := vo.Blocks[i].Skip; s != nil && s.Group >= 0 {
			return s
		}
	}
	return nil
}

// otherGroup returns a group index other than g, or −1.
func otherGroup(vo *VO, g int) int {
	for i := range vo.Groups {
		if i != g {
			return i
		}
	}
	return -1
}

// skipCiteMutations tamper with a skip that cites its clause's batch
// group (§6.2 and §6.3: a skip is a mismatch over a larger multiset).
var skipCiteMutations = []mutation{
	{"skip-group-out-of-range", func(t *testing.T, c *advCtx) bool {
		s := groupedSkip(c.vo)
		if s == nil {
			return false
		}
		s.Group = len(c.vo.Groups)
		return true
	}},
	{"skip-moved-to-another-group", func(t *testing.T, c *advCtx) bool {
		s := groupedSkip(c.vo)
		if s == nil || otherGroup(c.vo, s.Group) < 0 {
			return false
		}
		s.Group = otherGroup(c.vo, s.Group)
		return true
	}},
	{"skip-detached-with-foreign-proof", func(t *testing.T, c *advCtx) bool {
		// Detach the skip from its group and hand it the other group's
		// aggregated proof inline, citing its own clause.
		s := groupedSkip(c.vo)
		if s == nil || otherGroup(c.vo, s.Group) < 0 {
			return false
		}
		other := otherGroup(c.vo, s.Group)
		s.Cite = Cite{Group: -1, Clause: c.vo.Groups[s.Group].Clause, Proof: &c.vo.Groups[other].Proof}
		return true
	}},
	{"skip-group-clause-foreign", func(t *testing.T, c *advCtx) bool {
		s := groupedSkip(c.vo)
		if s == nil {
			return false
		}
		c.vo.Groups[s.Group].Clause = KeywordClause("spaceship")
		return true
	}},
}

// runMutations exercises a mutation table against fresh VOs.
func runMutations(t *testing.T, c func(t *testing.T) *advCtx, muts []mutation) {
	t.Helper()
	// Sanity: the honest VO must be accepted by both modes.
	honest := c(t)
	for _, seq := range []bool{true, false} {
		v := &Verifier{Acc: honest.acc, Light: honest.light, Sequential: seq}
		if _, err := v.VerifyTimeWindow(honest.q, honest.vo); err != nil {
			t.Fatalf("sequential=%v verifier rejected the honest VO: %v", seq, err)
		}
	}
	applied := 0
	for _, m := range muts {
		t.Run(m.name, func(t *testing.T) {
			ctx := c(t)
			if !m.apply(t, ctx) {
				t.Skipf("VO lacks the targeted component")
			}
			applied++
			mustRejectBoth(t, ctx, m.name)
		})
	}
	if applied == 0 {
		t.Error("no mutation applied; fixture shape is wrong")
	}
}

func TestAdversarialTreeVO(t *testing.T) {
	for accName, acc := range testAccs(t) {
		t.Run(accName, func(t *testing.T) {
			node, light := buildTestChain(t, acc, ModeIntra, 2)
			q := sedanBenzQuery(0, 1)
			fresh := func(t *testing.T) *advCtx {
				vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				return &advCtx{acc: acc, node: node, light: light, q: q, vo: vo}
			}
			runMutations(t, fresh, treeMutations)
			runMutations(t, fresh, blockMutations)
		})
	}
}

func TestAdversarialSkipVO(t *testing.T) {
	for accName, acc := range testAccs(t) {
		t.Run(accName, func(t *testing.T) {
			// 12 blocks so heights ≥ 8 carry two skip levels (distances
			// 4 and 8) — the sibling mutations need a multi-level entry.
			node, light := buildTestChain(t, acc, ModeBoth, 12)
			q := Query{StartBlock: 0, EndBlock: 11, Bool: CNF{KeywordClause("tesla")}, Width: testWidth}
			fresh := func(t *testing.T) *advCtx {
				vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if firstSkip(vo) == nil {
					t.Fatal("fixture produced no skip entries")
				}
				return &advCtx{acc: acc, node: node, light: light, q: q, vo: vo}
			}
			runMutations(t, fresh, skipMutations)
		})
	}
}

func TestAdversarialGroupVO(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeIntra, 4)
	q := sedanBenzQuery(0, 3)
	fresh := func(t *testing.T) *advCtx {
		vo, err := node.SP(true).TimeWindowQuery(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(vo.Groups) == 0 {
			t.Fatal("batched SP produced no groups")
		}
		return &advCtx{acc: acc, node: node, light: light, q: q, vo: vo}
	}
	runMutations(t, fresh, groupMutations)
}

// vanObjects is a block that holds no sedan.
func vanObjects(base uint64) []chain.Object {
	return []chain.Object{
		{ID: chain.ObjectID(base + 1), TS: int64(base), V: []int64{4}, W: []string{"van", "benz"}},
		{ID: chain.ObjectID(base + 2), TS: int64(base), V: []int64{6}, W: []string{"van", "audi"}},
	}
}

func TestAdversarialBatchedSkipVO(t *testing.T) {
	acc := testAccs(t)["acc2"]
	// Blocks 0–3 hold the car example and 4–11 only vans. From height
	// 11 a skip of distance 8 misses "sedan", as mismatch nodes of
	// blocks 0–3 do, so it joins their group; the cars add a second
	// group, for "benz ∨ bmw".
	node := NewFullNode(0, &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth})
	for i := 0; i < 12; i++ {
		objs := carObjects(uint64(i * 10))
		if i >= 4 {
			objs = vanObjects(uint64(i * 10))
		}
		if _, err := node.MineBlock(objs, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	light := chain.NewLightStore(0)
	if err := light.Sync(node.Store.Headers()); err != nil {
		t.Fatal(err)
	}
	q := sedanBenzQuery(0, 11)
	fresh := func(t *testing.T) *advCtx {
		vo, err := node.SP(true).TimeWindowQuery(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if groupedSkip(vo) == nil || len(vo.Groups) < 2 {
			t.Fatalf("fixture has %d groups and no grouped skip", len(vo.Groups))
		}
		return &advCtx{acc: acc, node: node, light: light, q: q, vo: vo}
	}
	runMutations(t, fresh, skipCiteMutations)
	runMutations(t, fresh, groupMutations)
}

// TestAdversarialAgreementOnCodec replays every decodable mutation of
// the wire bytes through both verifiers: whatever one mode decides,
// the other must match. This is the differential guarantee the batched
// engine advertises, applied to byte-level tampering rather than
// structured mutations.
func TestAdversarialAgreementOnCodec(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeIntra, 2)
	q := sedanBenzQuery(0, 1)
	vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeVO(acc, vo)
	// Flip one byte at a time across a sample of offsets.
	step := len(enc)/97 + 1
	for off := 0; off < len(enc); off += step {
		bad := append([]byte{}, enc...)
		bad[off] ^= 0x01
		dec, err := DecodeVO(acc, bad)
		if err != nil {
			continue // malformed encodings are rejected before verification
		}
		_, seqErr := (&Verifier{Acc: acc, Light: light, Sequential: true}).VerifyTimeWindow(q, dec)
		_, batErr := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, dec)
		if (seqErr == nil) != (batErr == nil) {
			t.Fatalf("offset %d: verifiers disagree (sequential=%v, batched=%v)", off, seqErr, batErr)
		}
	}
}
