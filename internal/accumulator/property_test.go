package accumulator

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/multiset"
)

// randomMultiset draws up to n elements from a vocabulary with random
// multiplicities.
func randomMultiset(rng *rand.Rand, vocab []string, n int) multiset.Multiset {
	var elems []string
	k := rng.Intn(n + 1)
	for i := 0; i < k; i++ {
		e := vocab[rng.Intn(len(vocab))]
		for range 1 + rng.Intn(2) {
			elems = append(elems, e)
		}
	}
	return multiset.New(elems...)
}

// TestDisjointProofPropertyRandomized checks, over random multiset
// pairs, the central accumulator contract: ProveDisjoint succeeds
// exactly on disjoint pairs, and the produced proof verifies against
// the true accumulation values — while verification against any
// *other* pair's accumulation values fails.
func TestDisjointProofPropertyRandomized(t *testing.T) {
	vocabA := []string{"a1", "a2", "a3", "a4", "a5"}
	vocabB := []string{"b1", "b2", "b3", "b4", "b5"}
	vocabAll := append(append([]string{}, vocabA...), vocabB...)

	for _, acc := range both(t) {
		t.Run(acc.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(555))
			proven := 0
			for trial := 0; trial < 24; trial++ {
				var x1, x2 multiset.Multiset
				if trial%2 == 0 {
					// Guaranteed disjoint: separate vocabularies.
					x1 = randomMultiset(rng, vocabA, 4)
					x2 = randomMultiset(rng, vocabB, 3)
				} else {
					// Arbitrary: may intersect.
					x1 = randomMultiset(rng, vocabAll, 4)
					x2 = randomMultiset(rng, vocabAll, 3)
				}
				disjoint := multiset.Disjoint(x1, x2)
				pf, err := acc.ProveDisjoint(x1, x2)
				if disjoint && err != nil {
					t.Fatalf("trial %d: disjoint pair unprovable: %v", trial, err)
				}
				if !disjoint && err == nil {
					t.Fatalf("trial %d: intersecting pair proved", trial)
				}
				if err != nil {
					continue
				}
				proven++
				a1, err := acc.Setup(x1)
				if err != nil {
					t.Fatal(err)
				}
				a2, err := acc.Setup(x2)
				if err != nil {
					t.Fatal(err)
				}
				if !acc.VerifyDisjoint(a1, a2, pf) {
					t.Fatalf("trial %d: valid proof rejected (%v vs %v)", trial, x1, x2)
				}
				// The same proof must not verify for a different first
				// multiset that intersects x2.
				if x2.Len() > 0 {
					forged := multiset.Sum(x1, multiset.New(x2[0].Elem))
					af, err := acc.Setup(forged)
					if err != nil {
						t.Fatal(err)
					}
					if acc.VerifyDisjoint(af, a2, pf) {
						t.Fatalf("trial %d: proof transplanted to intersecting multiset", trial)
					}
				}
			}
			if proven < 8 {
				t.Fatalf("only %d provable trials; generator broken", proven)
			}
		})
	}
}

// TestCon2SumHomomorphismRandomized: acc(ΣX_i) == Sum(acc(X_i)) for
// random collections — the §6.3/§7.2 aggregation foundation.
func TestCon2SumHomomorphismRandomized(t *testing.T) {
	acc := con2(t, 64)
	vocab := []string{"u", "v", "w", "x", "y", "z"}
	rng := rand.New(rand.NewSource(556))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(3)
		parts := make([]multiset.Multiset, n)
		accs := make([]Acc, n)
		total := multiset.Multiset{}
		for i := range parts {
			parts[i] = randomMultiset(rng, vocab, 3)
			a, err := acc.Setup(parts[i])
			if err != nil {
				t.Fatal(err)
			}
			accs[i] = a
			total = multiset.Sum(total, parts[i])
		}
		summed, err := acc.Sum(accs...)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := acc.Setup(total)
		if err != nil {
			t.Fatal(err)
		}
		if !acc.AccEqual(summed, direct) {
			t.Fatalf("trial %d: Sum homomorphism broken for %v", trial, parts)
		}
	}
}

// TestCon2ProofSumHomomorphismRandomized: ProofSum of proofs against a
// shared clause equals the direct proof of the summed multiset.
func TestCon2ProofSumHomomorphismRandomized(t *testing.T) {
	// A DictEncoder avoids hash collisions between the clause element
	// and the vocabulary (the documented HashEncoder caveat).
	acc := KeyGenCon2Deterministic(pairing.Toy(), 64, NewDictEncoder(64), []byte("proofsum"))
	vocab := []string{"u", "v", "w", "x"}
	clause := multiset.New("forbidden")
	rng := rand.New(rand.NewSource(557))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(3)
		proofs := make([]Proof, n)
		total := multiset.Multiset{}
		for i := 0; i < n; i++ {
			m := randomMultiset(rng, vocab, 3)
			pf, err := acc.ProveDisjoint(m, clause)
			if err != nil {
				t.Fatal(err)
			}
			proofs[i] = pf
			total = multiset.Sum(total, m)
		}
		agg, err := acc.ProofSum(proofs...)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := acc.ProveDisjoint(total, clause)
		if err != nil {
			t.Fatal(err)
		}
		if !agg.F1.Equal(direct.F1) {
			t.Fatalf("trial %d: ProofSum != direct proof", trial)
		}
	}
}

// TestAccDeterminismAcrossKeyInstances: two keys derived from the same
// seed must agree on every value (reproducible deployments), and keys
// from different seeds must not.
func TestAccDeterminismAcrossKeyInstances(t *testing.T) {
	pr := toyParams(t)
	for _, name := range []string{"acc1", "acc2"} {
		t.Run(name, func(t *testing.T) {
			mk := func(seed string) Accumulator {
				if name == "acc1" {
					return KeyGenCon1Deterministic(pr, 32, []byte(seed))
				}
				return KeyGenCon2Deterministic(pr, 64, HashEncoder{Q: 64}, []byte(seed))
			}
			a, b, c := mk("same"), mk("same"), mk("other")
			x := multiset.New("k1", "k2")
			va, _ := a.Setup(x)
			vb, _ := b.Setup(x)
			vc, _ := c.Setup(x)
			if !a.AccEqual(va, vb) {
				t.Error("same seed, different keys")
			}
			if a.AccEqual(va, vc) {
				t.Error("different seeds, same key")
			}
			// Cross-key proof verification must work for same-seed keys.
			pf, err := a.ProveDisjoint(x, multiset.New("z"))
			if err != nil {
				t.Fatal(err)
			}
			az, _ := b.Setup(multiset.New("z"))
			if !b.VerifyDisjoint(vb, az, pf) {
				t.Error("same-seed key rejected valid proof")
			}
		})
	}
}

func toyParams(t testing.TB) *pairing.Params {
	t.Helper()
	return pairing.Toy()
}

func ExampleCon2_aggregation() {
	pr := pairing.Toy()
	acc := KeyGenCon2Deterministic(pr, 64, HashEncoder{Q: 64}, []byte("ex"))
	a, _ := acc.Setup(multiset.New("sedan"))
	b, _ := acc.Setup(multiset.New("van"))
	sum, _ := acc.Sum(a, b)
	direct, _ := acc.Setup(multiset.New("sedan", "van"))
	fmt.Println(acc.AccEqual(sum, direct))
	// Output: true
}

// unionCases returns multiset pairs covering the shapes a parent's
// children take: random, disjoint, equal, nested, heavily overlapping
// with different multiplicities, and empty on either side.
func unionCases(rng *rand.Rand) [][2]multiset.Multiset {
	vocab := []string{"u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8"}
	x := multiset.New("u1", "u2", "u2", "u2", "u3", "u4", "u5")
	heavy := multiset.Sum(x, multiset.New("u1", "u3", "u3", "u6"))
	cases := [][2]multiset.Multiset{
		{multiset.New("u1", "u2"), multiset.New("u3", "u4")},
		{x, slices.Clone(x)},
		{multiset.New("u2", "u4"), x},
		{x, heavy},
		{multiset.Multiset{}, x},
		{x, multiset.Multiset{}},
	}
	for i := 0; i < 10; i++ {
		cases = append(cases, [2]multiset.Multiset{randomMultiset(rng, vocab, 6), randomMultiset(rng, vocab, 6)})
	}
	return cases
}

// TestAccUnionMatchesSetupOfUnion: UnionEach(pairs of x1, x2 with
// acc(x1), acc(x2)) == Setup(x1 ∪ x2) for every pair, in batches of 1
// to 4 pairs and in one batch of all cases, for both constructions at
// toy and (full runs only) default, and for acc2 under a HashEncoder
// whose tiny domain makes distinct elements collide. SetupEach over
// every case's multisets must match Setup per item as well.
func TestAccUnionMatchesSetupOfUnion(t *testing.T) {
	presets := []string{"toy"}
	if !testing.Short() {
		presets = append(presets, "default")
	}
	for _, preset := range presets {
		pr := pairing.ByName(preset)
		accs := map[string]Accumulator{
			"acc1":         KeyGenCon1Deterministic(pr, 64, []byte("union")),
			"acc2":         KeyGenCon2Deterministic(pr, 64, HashEncoder{Q: 64}, []byte("union")),
			"acc2-collide": KeyGenCon2Deterministic(pr, 4, HashEncoder{Q: 4}, []byte("union")),
		}
		for name, acc := range accs {
			t.Run(preset+"/"+name, func(t *testing.T) {
				cases := unionCases(rand.New(rand.NewSource(558)))
				for k := 1; k <= 4; k++ {
					for i := 0; i < len(cases); i += k {
						checkUnionEach(t, acc, cases[i:min(i+k, len(cases))])
					}
				}
				checkUnionEach(t, acc, cases)
				var xs []multiset.Multiset
				for _, c := range cases {
					xs = append(xs, c[0], c[1])
				}
				got, err := SetupEach(acc, xs)
				if err != nil {
					t.Fatal(err)
				}
				for i, x := range xs {
					if !acc.AccEqual(got[i], setupAcc(t, acc, x)) {
						t.Fatalf("SetupEach item %d != Setup for %v", i, x)
					}
				}
			})
		}
	}
}

func setupAcc(t testing.TB, acc Accumulator, x multiset.Multiset) Acc {
	t.Helper()
	a, err := acc.Setup(x)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// checkUnionEach runs one UnionEach over the pairs, from freshly set-up
// digests, and checks every result against Setup of the union.
func checkUnionEach(t testing.TB, acc Accumulator, pairs [][2]multiset.Multiset) {
	t.Helper()
	ps := make([]Pair, len(pairs))
	for i, c := range pairs {
		ps[i] = Pair{X1: c[0], X2: c[1], Acc1: setupAcc(t, acc, c[0]), Acc2: setupAcc(t, acc, c[1])}
	}
	got, err := UnionEach(acc, ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pairs) {
		t.Fatalf("UnionEach returned %d digests for %d pairs", len(got), len(pairs))
	}
	for i, c := range pairs {
		if want := setupAcc(t, acc, multiset.Union(c[0], c[1])); !acc.AccEqual(got[i], want) {
			t.Fatalf("pair %d of %d: UnionEach != Setup(Union) for %v, %v", i, len(pairs), c[0], c[1])
		}
	}
}
