package accumulator

import (
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/ec"
	"github.com/vchain-go/vchain/internal/multiset"
)

// TestTorsionProofVerdicts pins what Construction 2's verifiers decide
// today for an honest proof moved off G by a small-torsion point, and
// for bare torsion points as proofs. Proofs are checked for curve
// membership only, so these verdicts are the pairing arithmetic's own:
// the sequential check and a one-check batch must agree with each
// other and stay as they are until proofs are checked for subgroup
// membership, which turns every case into a typed rejection. Batches
// of several checks are not pinned: whether a torsion component
// survives there depends on the parity of its random exponent.
func TestTorsionProofVerdicts(t *testing.T) {
	c := con2(t, 64)
	pr := c.Params()
	f := pr.F
	x1 := multiset.New("sedan", "benz")
	x2 := multiset.New("van")
	a1, err := c.Setup(x1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Setup(x2)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := c.ProveDisjoint(x1, x2)
	if err != nil {
		t.Fatal(err)
	}
	t2 := ec.Point{X: f.FromInt64(-1), Y: f.Zero()}
	t3 := ec.Point{X: f.Zero(), Y: f.One()}
	t3n := ec.Point{X: f.Zero(), Y: f.FromInt64(-1)}
	cases := []struct {
		name  string
		proof ec.Point
		want  bool
	}{
		{"honest", pf.F1, true},
		{"proof+(-1,0)", pr.C.Add(pf.F1, t2), false},
		{"proof+(0,1)", pr.C.Add(pf.F1, t3), true},
		{"(0,1)", t3, false},
		{"(0,-1)", t3n, false},
		{"(-1,0)", t2, false},
	}
	for _, tc := range cases {
		if !pr.C.IsOnCurve(tc.proof) {
			t.Fatalf("%s: proof off the curve", tc.name)
		}
		proof := Proof{F1: tc.proof, F2: pr.C.Infinity()}
		if got := c.VerifyDisjoint(a1, a2, proof); got != tc.want {
			t.Errorf("%s: VerifyDisjoint = %v, want %v", tc.name, got, tc.want)
		}
		check := []DisjointCheck{{Acc1: a1, Acc2: a2, Proof: proof}}
		if got := c.VerifyDisjointBatch(check); got != tc.want {
			t.Errorf("%s: one-check VerifyDisjointBatch = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCon1TorsionProofVerdicts pins Construction 1's verdicts for
// proofs moved off G by a small-torsion point, and for the bare
// torsion points (0, ±1) and (−1, 0) as proofs. The proof points sit
// in the pairings' second argument, where (0, ±1) is the one kind of
// point the distortion map sends to an F_p-rational evaluation point.
// With the accumulators in G, a torsion component of a proof point
// pairs to 1 and is accepted; the bare points are rejected. A
// one-check batch runs the sequential check. A batch of the same check
// twice is pinned too: it loops only the accumulators and keeps both
// proof points as second arguments, as the sequential check does.
func TestCon1TorsionProofVerdicts(t *testing.T) {
	c := con1(t, 32)
	pr := c.Params()
	f := pr.F
	x1 := multiset.New("sedan", "benz")
	x2 := multiset.New("van")
	a1, err := c.Setup(x1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Setup(x2)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := c.ProveDisjoint(x1, x2)
	if err != nil {
		t.Fatal(err)
	}
	t2 := ec.Point{X: f.FromInt64(-1), Y: f.Zero()}
	t3 := ec.Point{X: f.Zero(), Y: f.One()}
	t3n := ec.Point{X: f.Zero(), Y: f.FromInt64(-1)}
	cases := []struct {
		name   string
		f1, f2 ec.Point
		want   bool
	}{
		{"honest", pf.F1, pf.F2, true},
		{"F1+(-1,0)", pr.C.Add(pf.F1, t2), pf.F2, true},
		{"F1+(0,1)", pr.C.Add(pf.F1, t3), pf.F2, true},
		{"F2+(0,-1)", pf.F1, pr.C.Add(pf.F2, t3n), true},
		{"F1=(0,1)", t3, pf.F2, false},
		{"F1=(0,-1)", t3n, pf.F2, false},
		{"F2=(0,1)", pf.F1, t3, false},
		{"F1=(-1,0)", t2, pf.F2, false},
		{"F1,F2=(0,1),(0,-1)", t3, t3n, false},
	}
	for _, tc := range cases {
		if !pr.C.IsOnCurve(tc.f1) || !pr.C.IsOnCurve(tc.f2) {
			t.Fatalf("%s: proof off the curve", tc.name)
		}
		proof := Proof{F1: tc.f1, F2: tc.f2}
		if got := c.VerifyDisjoint(a1, a2, proof); got != tc.want {
			t.Errorf("%s: VerifyDisjoint = %v, want %v", tc.name, got, tc.want)
		}
		check := DisjointCheck{Acc1: a1, Acc2: a2, Proof: proof}
		if got := c.VerifyDisjointBatch([]DisjointCheck{check}); got != tc.want {
			t.Errorf("%s: one-check VerifyDisjointBatch = %v, want %v", tc.name, got, tc.want)
		}
		if got := c.VerifyDisjointBatch([]DisjointCheck{check, check}); got != tc.want {
			t.Errorf("%s: two-check VerifyDisjointBatch = %v, want %v", tc.name, got, tc.want)
		}
	}
}
