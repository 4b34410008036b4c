package pairing

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/ec"
)

// randPoint returns a random element of the order-r subgroup.
func randPoint(pr *Params, rng *rand.Rand) ec.Point {
	k := new(big.Int).Rand(rng, pr.R)
	return pr.C.ScalarMul(pr.G, k)
}

func TestPairingCheck(t *testing.T) {
	pr := Toy()
	a := big.NewInt(1234)
	b := big.NewInt(8765)
	ab := new(big.Int).Mul(a, b)
	pa := pr.C.ScalarMul(pr.G, a)
	pb := pr.C.ScalarMul(pr.G, b)
	pab := pr.C.ScalarMul(pr.G, ab)
	// ê(aG, bG)·ê(−abG, G) == 1.
	if !pr.IsOne(pr.PairProduct(PairPair{P: pa, Q: pb}, PairPair{P: pr.C.Neg(pab), Q: pr.G})) {
		t.Error("true pairing check rejected")
	}
	if pr.IsOne(pr.PairProduct(PairPair{P: pa, Q: pb}, PairPair{P: pab, Q: pr.G})) {
		t.Error("false pairing check accepted")
	}
	if !pr.IsOne(pr.PairProduct()) {
		t.Error("empty check must hold")
	}
}

// trueEquation returns a random valid equation ê(aG, bG) == ê(abG, G).
func trueEquation(pr *Params, rng *rand.Rand) BatchEquation {
	a := new(big.Int).Rand(rng, pr.R)
	b := new(big.Int).Rand(rng, pr.R)
	ab := new(big.Int).Mul(a, b)
	ab.Mod(ab, pr.R)
	return BatchEquation{
		Pairs: []PairPair{{P: pr.C.ScalarMul(pr.G, a), Q: pr.C.ScalarMul(pr.G, b)}},
		R:     pr.C.ScalarMul(pr.G, ab),
	}
}

func TestPairingCheckBatchAcceptsTrueBatches(t *testing.T) {
	pr := Toy()
	rng := rand.New(rand.NewSource(47))
	for _, k := range []int{0, 1, 2, 5, 17} {
		eqs := make([]BatchEquation, k)
		for i := range eqs {
			eqs[i] = trueEquation(pr, rng)
		}
		if !pr.PairingCheckBatch(eqs) {
			t.Errorf("k=%d: true batch rejected", k)
		}
	}
}

func TestPairingCheckBatchRejectsOneBad(t *testing.T) {
	pr := Toy()
	rng := rand.New(rand.NewSource(53))
	for _, k := range []int{1, 2, 9} {
		for bad := 0; bad < k; bad++ {
			eqs := make([]BatchEquation, k)
			for i := range eqs {
				eqs[i] = trueEquation(pr, rng)
			}
			// Corrupt equation `bad`: shift its RHS by G.
			eqs[bad].R = pr.C.Add(eqs[bad].R, pr.G)
			if pr.PairingCheckBatch(eqs) {
				t.Errorf("k=%d: batch with bad equation %d accepted", k, bad)
			}
		}
	}
}

func TestPairingCheckBatchMultiPairEquations(t *testing.T) {
	// Construction-1 shape: ê(aG, bG)·ê(cG, dG) == ê((ab+cd)G, G).
	pr := Toy()
	rng := rand.New(rand.NewSource(59))
	eqs := make([]BatchEquation, 4)
	for i := range eqs {
		a := new(big.Int).Rand(rng, pr.R)
		b := new(big.Int).Rand(rng, pr.R)
		c := new(big.Int).Rand(rng, pr.R)
		d := new(big.Int).Rand(rng, pr.R)
		s := new(big.Int).Add(new(big.Int).Mul(a, b), new(big.Int).Mul(c, d))
		s.Mod(s, pr.R)
		eqs[i] = BatchEquation{
			Pairs: []PairPair{
				{P: pr.C.ScalarMul(pr.G, a), Q: pr.C.ScalarMul(pr.G, b)},
				{P: pr.C.ScalarMul(pr.G, c), Q: pr.C.ScalarMul(pr.G, d)},
			},
			R: pr.C.ScalarMul(pr.G, s),
		}
	}
	if !pr.PairingCheckBatch(eqs) {
		t.Error("true two-pair batch rejected")
	}
	eqs[2].Pairs[1].P = pr.C.Add(eqs[2].Pairs[1].P, pr.G)
	if pr.PairingCheckBatch(eqs) {
		t.Error("corrupted two-pair batch accepted")
	}
}

func TestPairingCheckBatchInfinityEdges(t *testing.T) {
	pr := Toy()
	// All-infinity equation: 1 == ê(∞, G) holds.
	ok := pr.PairingCheckBatch([]BatchEquation{{
		Pairs: []PairPair{{P: pr.C.Infinity(), Q: pr.G}},
		R:     pr.C.Infinity(),
	}})
	if !ok {
		t.Error("identity equation rejected")
	}
	// 1 == ê(G, G) must fail.
	ok = pr.PairingCheckBatch([]BatchEquation{{
		Pairs: []PairPair{{P: pr.C.Infinity(), Q: pr.G}},
		R:     pr.G,
	}})
	if ok {
		t.Error("non-trivial RHS against empty LHS accepted")
	}
}

// millerPairs counts the Miller pairs a plan runs.
func millerPairs(pl batchPlan) int {
	n := len(pl.shared)
	for _, own := range pl.own {
		n += len(own)
	}
	return n
}

// TestPlanBatchMillerPairs pins the Miller pairs planBatch gives the
// verifier's batch shapes. A subscription block checks one digest
// against a clause per subscription: bucketing by second argument
// alone leaves one loop per clause, and the digest's group merges
// them. A query answer checks many digests against few clauses, with
// the odd check alone on both arguments, and plans as bucketing by
// second argument alone does.
func TestPlanBatchMillerPairs(t *testing.T) {
	pr := Toy()
	rng := rand.New(rand.NewSource(61))
	randomizers := func(k int) []*big.Int {
		exps := []*big.Int{big.NewInt(1)}
		for len(exps) < k {
			exps = append(exps, new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 64)))
		}
		return exps
	}
	digest := randPoint(pr, rng)
	var block []BatchEquation
	for range 10 {
		block = append(block, BatchEquation{Pairs: []PairPair{{P: digest, Q: randPoint(pr, rng)}}, R: randPoint(pr, rng)})
	}
	clauses := []ec.Point{randPoint(pr, rng), randPoint(pr, rng), randPoint(pr, rng)}
	var answer []BatchEquation
	for i := range 12 {
		answer = append(answer, BatchEquation{Pairs: []PairPair{{P: randPoint(pr, rng), Q: clauses[i%3]}}, R: randPoint(pr, rng)})
	}
	answer = append(answer, BatchEquation{Pairs: []PairPair{{P: randPoint(pr, rng), Q: randPoint(pr, rng)}}, R: randPoint(pr, rng)})
	for _, tc := range []struct {
		name string
		eqs  []BatchEquation
		want int
	}{
		{"1 digest x 10 clauses", block, 2},                  // the digest and G; 11 by second argument alone
		{"12 digests x 3 clauses + 1 lone check", answer, 5}, // 3 clauses, G, the lone pair
	} {
		if got := millerPairs(pr.planBatch(tc.eqs, randomizers(len(tc.eqs)))); got != tc.want {
			t.Errorf("%s: %d Miller pairs, want %d", tc.name, got, tc.want)
		}
	}
}
