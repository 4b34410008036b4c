package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
)

// countingAcc records the sizes of the batches its verifier flushes.
type countingAcc struct {
	accumulator.Accumulator
	batches []int
}

func (c *countingAcc) VerifyDisjointBatch(checks []accumulator.DisjointCheck) bool {
	c.batches = append(c.batches, len(checks))
	return c.Accumulator.VerifyDisjointBatch(checks)
}

// spanFixture is one block's subscription publications in miniature:
// queries sharing clauses, each proven over single blocks (the genesis
// block's among them) and over a longer span, on a chain of six blocks.
func spanFixture(t *testing.T, acc accumulator.Accumulator) (*chain.LightStore, func(*testing.T) []Span) {
	t.Helper()
	node, light := buildTestChain(t, acc, ModeBoth, 6)
	queries := []Query{
		sedanBenzQuery(0, 0),
		{Bool: CNF{KeywordClause("sedan")}, Width: testWidth},
		{Bool: CNF{KeywordClause("benz", "bmw")}, Width: testWidth},
		{Bool: CNF{KeywordClause("tesla")}, Width: testWidth},
		{Bool: CNF{KeywordClause("tesla"), KeywordClause("sedan")}, Width: testWidth},
	}
	windows := [][2]int{{5, 5}, {4, 4}, {0, 0}, {1, 5}}
	return light, func(t *testing.T) []Span {
		var spans []Span
		for _, q := range queries {
			for _, w := range windows {
				q.StartBlock, q.EndBlock = w[0], w[1]
				vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				spans = append(spans, Span{Query: q, From: w[0], To: w[1], VO: vo})
			}
		}
		return spans
	}
}

// errClass names the verification error class of err.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrSoundness):
		return "soundness"
	case errors.Is(err, ErrCompleteness):
		return "completeness"
	}
	return "other: " + err.Error()
}

// TestVerifySpansMatchesVerifySpan: verifying spans together returns,
// per span, the objects and the error class of verifying it alone, for
// honest spans and for one tampered span among honest ones. The
// batched verifier settles the honest set with one deduplicated batch;
// the sequential one never batches.
func TestVerifySpansMatchesVerifySpan(t *testing.T) {
	tampers := []struct {
		name  string
		want  string
		apply func(s *Span, light *chain.LightStore) bool
	}{
		{"honest", "nil", func(*Span, *chain.LightStore) bool { return true }},
		{"flipped-object", "soundness", func(s *Span, _ *chain.LightStore) bool {
			rs := collectNodes(s.VO, KindResult)
			if len(rs) == 0 {
				return false
			}
			rs[0].Obj.W = []string{"van"}
			return true
		}},
		{"foreign-clause", "soundness", func(s *Span, _ *chain.LightStore) bool {
			n := firstMismatch(s.VO)
			if n == nil {
				return false
			}
			n.Clause = KeywordClause("zeppelin")
			return true
		}},
		{"wrong-proof", "soundness", func(s *Span, _ *chain.LightStore) bool {
			// Another valid curve point: the walk accepts it, only the
			// pairing flush can reject it.
			for _, n := range collectNodes(s.VO, KindMismatch) {
				if n.Proof != nil {
					n.Proof.F1 = n.Digest.A
					return true
				}
			}
			return false
		}},
		{"beyond-synced-headers", "completeness", func(s *Span, light *chain.LightStore) bool {
			s.From, s.To = light.Height(), light.Height()
			return true
		}},
	}
	for name, acc := range testAccs(t) {
		light, build := spanFixture(t, acc)
		for _, tc := range tampers {
			for _, seq := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/sequential=%v", name, tc.name, seq), func(t *testing.T) {
					spans := build(t)
					bad := -1
					for i := range spans {
						if tc.apply(&spans[i], light) {
							bad = i
							break
						}
					}
					if bad < 0 {
						t.Fatal("no span has the component this tamper targets")
					}
					counter := &countingAcc{Accumulator: acc}
					v := &Verifier{Acc: counter, Light: light, Sequential: seq}
					got := v.VerifySpans(spans)
					flushed := counter.batches
					for i, s := range spans {
						objs, err := v.VerifySpan(s.Query, s.From, s.To, s.VO)
						if g, w := errClass(got[i].Err), errClass(err); g != w {
							t.Fatalf("span %d: together %s, alone %s", i, g, w)
						}
						if !reflect.DeepEqual(got[i].Objects, objs) {
							t.Fatalf("span %d: together %d objects, alone %d", i, len(got[i].Objects), len(objs))
						}
						want := "nil"
						if i == bad {
							want = tc.want
						}
						if g := errClass(got[i].Err); g != want {
							t.Fatalf("span %d: %s, want %s", i, g, want)
						}
					}
					if seq && len(flushed) != 0 {
						t.Fatalf("sequential verifier flushed batches %v", flushed)
					}
					if !seq && tc.name == "honest" {
						if len(flushed) != 1 {
							t.Fatalf("honest spans flushed as batches %v, want one", flushed)
						}
						total := 0
						for _, s := range spans {
							cc := newCheckCollector(acc)
							if _, err := v.collectSpan(s, cc); err != nil {
								t.Fatal(err)
							}
							total += len(cc.pending)
						}
						if flushed[0] >= total {
							t.Fatalf("union of %d checks flushed as %d: nothing deduplicated", total, flushed[0])
						}
					}
				})
			}
		}
	}
}

// TestVerifySpansOneDigestManyClauses: spans that check one block's
// digest against a different clause each, as a subscription block's
// publications do, settle in one flush, and the pairing batch merges
// their checks on that digest. A tampered proof among them fails only
// its own span, with ErrSoundness.
func TestVerifySpansOneDigestManyClauses(t *testing.T) {
	for name, acc := range testAccs(t) {
		node, light := buildTestChain(t, acc, ModeBoth, 3)
		for _, tampered := range []int{-1, 3} {
			t.Run(fmt.Sprintf("%s/tampered=%d", name, tampered), func(t *testing.T) {
				var spans []Span
				var digest accumulator.Acc
				for i := range 6 {
					q := Query{StartBlock: 2, EndBlock: 2, Bool: CNF{KeywordClause(fmt.Sprintf("zeppelin%d", i))}, Width: testWidth}
					vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					ms := collectNodes(vo, KindMismatch)
					if len(ms) != 1 || ms[0].Proof == nil {
						t.Fatalf("span %d: %d mismatch nodes, want the block root alone", i, len(ms))
					}
					if i == 0 {
						digest = ms[0].Digest
					} else if !acc.AccEqual(ms[0].Digest, digest) {
						t.Fatalf("span %d proves another digest than span 0", i)
					}
					if i == tampered {
						ms[0].Proof.F1 = ms[0].Digest.A
					}
					spans = append(spans, Span{Query: q, From: 2, To: 2, VO: vo})
				}
				counter := &countingAcc{Accumulator: acc}
				got := (&Verifier{Acc: counter, Light: light}).VerifySpans(spans)
				if counter.batches[0] != len(spans) {
					t.Fatalf("first flush checked %d, want all %d spans' checks", counter.batches[0], len(spans))
				}
				for i, r := range got {
					want := "nil"
					if i == tampered {
						want = "soundness"
					}
					if g := errClass(r.Err); g != want {
						t.Errorf("span %d: %s, want %s", i, g, want)
					}
				}
			})
		}
	}
}
