package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/multiset"
	"github.com/vchain-go/vchain/internal/proofs"
)

// freshSP returns an SP over node on a fresh engine proving through acc
// (the node's accumulator or a decorator of it).
func freshSP(node *FullNode, acc accumulator.Accumulator, batch bool) *SP {
	return &SP{Acc: node.Acc(), View: node, Batch: batch, Engine: proofs.New(acc, proofs.Options{})}
}

// TestParallelSPMatchesSequential checks that a parallel SP produces a
// VO that verifies identically and returns the same results.
func TestParallelSPMatchesSequential(t *testing.T) {
	for accName, acc := range testAccs(t) {
		for _, mode := range []IndexMode{ModeIntra, ModeBoth} {
			t.Run(fmt.Sprintf("%s/%v", accName, mode), func(t *testing.T) {
				node, light := buildTestChain(t, acc, mode, 5)
				q := sedanBenzQuery(0, 4)

				seq, err := node.SP(false).TimeWindowQuery(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				par, err := freshSP(node, acc, false).TimeWindowQuery(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				ver := &Verifier{Acc: acc, Light: light}
				rSeq, err := ver.VerifyTimeWindow(q, seq)
				if err != nil {
					t.Fatal(err)
				}
				rPar, err := ver.VerifyTimeWindow(q, par)
				if err != nil {
					t.Fatalf("parallel VO rejected: %v", err)
				}
				if len(rSeq) != len(rPar) {
					t.Fatalf("results differ: %d vs %d", len(rSeq), len(rPar))
				}
				for i := range rSeq {
					if rSeq[i].ID != rPar[i].ID {
						t.Fatal("result order differs")
					}
				}
				// Same VO transfer size (structure must be identical).
				if seq.SizeBytes(acc) != par.SizeBytes(acc) {
					t.Errorf("VO sizes differ: %d vs %d", seq.SizeBytes(acc), par.SizeBytes(acc))
				}
			})
		}
	}
}

// TestParallelSPWithBatch combines §6.3 batching with parallel proving.
func TestParallelSPWithBatch(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeIntra, 4)
	q := sedanBenzQuery(0, 3)
	vo, err := freshSP(node, acc, true).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(vo.Groups) == 0 {
		t.Fatal("batching lost under parallelism")
	}
	if _, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo); err != nil {
		t.Fatal(err)
	}
}

// TestParallelSPNoResults exercises the skip-heavy all-mismatch path.
func TestParallelSPNoResults(t *testing.T) {
	acc := testAccs(t)["acc2"]
	node, light := buildTestChain(t, acc, ModeBoth, 8)
	q := Query{StartBlock: 0, EndBlock: 7, Bool: CNF{KeywordClause("tesla")}, Width: testWidth}
	vo, err := freshSP(node, acc, false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatal("phantom results")
	}
}

var errInjectedProof = errors.New("injected proof failure")

// failingAcc fails every disjointness proof whose first multiset is
// larger than one block's: exactly the skip proofs of a window walk.
type failingAcc struct {
	accumulator.Accumulator
	blockCard int
}

func (a failingAcc) ProveDisjoint(x1, x2 multiset.Multiset) (accumulator.Proof, error) {
	if x1.Cardinality() > a.blockCard {
		return accumulator.Proof{}, errInjectedProof
	}
	return a.Accumulator.ProveDisjoint(x1, x2)
}

// TestAnswersIndependentOfWorkerCount pins that the number of
// goroutines proving a run, set by GOMAXPROCS, changes neither an
// answer's bytes nor a failed proof's outcome.
func TestAnswersIndependentOfWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	queries := []Query{
		sedanBenzQuery(0, 7),
		{StartBlock: 0, EndBlock: 7, Bool: CNF{KeywordClause("tesla")}, Width: testWidth},
		{StartBlock: 2, EndBlock: 6, Range: &RangeCond{Lo: []int64{4}, Hi: []int64{8}}, Width: testWidth},
	}
	procCounts := []int{1, 2, 4}
	for accName, acc := range testAccs(t) {
		node, _ := buildTestChain(t, acc, ModeBoth, 8)
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/batched=%v", accName, batched), func(t *testing.T) {
				for qi, q := range queries {
					var want []byte
					for _, procs := range procCounts {
						runtime.GOMAXPROCS(procs)
						vo, err := freshSP(node, acc, batched).TimeWindowQuery(context.Background(), q)
						if err != nil {
							t.Fatalf("query %d, GOMAXPROCS %d: %v", qi, procs, err)
						}
						got := EncodeVO(acc, vo)
						if want == nil {
							want = got
						} else if !bytes.Equal(got, want) {
							t.Errorf("query %d: GOMAXPROCS %d encodes different bytes than 1", qi, procs)
						}
					}
				}
			})
		}

		// A skip whose proof fails fails the query, at every GOMAXPROCS.
		t.Run(accName+"/failing-skip-proof", func(t *testing.T) {
			root, err := node.ADSAt(0)
			if err != nil {
				t.Fatal(err)
			}
			failing := failingAcc{Accumulator: acc, blockCard: root.BlockW().Cardinality()}
			for _, procs := range procCounts {
				runtime.GOMAXPROCS(procs)
				_, err := freshSP(node, failing, false).TimeWindowQuery(context.Background(), queries[1])
				if !errors.Is(err, errInjectedProof) {
					t.Errorf("GOMAXPROCS %d: got %v, want the injected proof failure", procs, err)
				}
			}
		})
	}
}

// cancelingAcc cancels the query's context on its first proof.
type cancelingAcc struct {
	accumulator.Accumulator
	cancel context.CancelFunc
}

func (a cancelingAcc) ProveDisjoint(x1, x2 multiset.Multiset) (accumulator.Proof, error) {
	a.cancel()
	return a.Accumulator.ProveDisjoint(x1, x2)
}

// TestDeadlineStopsProvingAtOneWorker pins that a canceled query stops
// proving mid-block at GOMAXPROCS 1, where a run proves on one
// goroutine, as it does on more.
func TestDeadlineStopsProvingAtOneWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	acc := testAccs(t)["acc2"]
	node, _ := buildTestChain(t, acc, ModeIntra, 1)
	// Block 0 holds three non-matching cars: at least two mismatch proofs.
	q := sedanBenzQuery(0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sp := freshSP(node, cancelingAcc{Accumulator: acc, cancel: cancel}, false)
	if _, err := sp.TimeWindowQuery(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want an error wrapping context.Canceled", err)
	}
	if st := sp.Engine.Stats(); st.Proofs != 1 {
		t.Errorf("computed %d proofs after the cancel, want only the one that canceled", st.Proofs)
	}
}
