package accumulator

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"github.com/vchain-go/vchain/internal/crypto/ec"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/multiset"
)

// proveByMSM is the reference for Con2.ProveDisjoint: the proof as it
// was computed before the bit groups, with the element codes and the
// exponent multiplicities summed in maps and one MultiScalarMul over
// the key points with *big.Int scalars.
func proveByMSM(c *Con2, x1, x2 multiset.Multiset) (ec.Point, error) {
	encode := func(x multiset.Multiset) (map[int]int, error) {
		out := make(map[int]int, x.Len())
		for _, e := range x {
			v, err := c.encodeElem(e.Elem)
			if err != nil {
				return nil, err
			}
			out[v] += e.Count
		}
		return out, nil
	}
	e1, err := encode(x1)
	if err != nil {
		return ec.Point{}, err
	}
	e2, err := encode(x2)
	if err != nil {
		return ec.Point{}, err
	}
	for v := range e1 {
		if e2[v] > 0 {
			return ec.Point{}, ErrNotDisjoint
		}
	}
	idx := make(map[int]int64, len(e1)*len(e2))
	for v1, m1 := range e1 {
		for v2, m2 := range e2 {
			idx[c.q+v1-v2] += int64(m1) * int64(m2)
		}
	}
	var pts []ec.Point
	var ks []*big.Int
	for i, m := range idx {
		pts = append(pts, c.pk[i])
		ks = append(ks, big.NewInt(m))
	}
	return c.pr.C.MultiScalarMul(pts, ks), nil
}

// times returns the multiset of e alone, n times.
func times(e string, n int) multiset.Multiset { return multiset.Multiset{{Elem: e, Count: n}} }

// checkProve compares ProveDisjoint with proveByMSM on one pair: the
// same point, or the same ErrNotDisjoint.
func checkProve(t testing.TB, c *Con2, x1, x2 multiset.Multiset) {
	t.Helper()
	want, wantErr := proveByMSM(c, x1, x2)
	got, err := c.ProveDisjoint(x1, x2)
	if !errors.Is(err, wantErr) && err != wantErr {
		t.Fatalf("ProveDisjoint(%v, %v): error %v, reference %v", x1, x2, err, wantErr)
	}
	if err != nil {
		return
	}
	if !got.F1.Equal(want) || !got.F2.Inf {
		t.Fatalf("ProveDisjoint(%v, %v) = %v, reference %v", x1, x2, got.F1, want)
	}
}

// distinctFrom returns the skip+1-th name prefix-k whose code is not
// among the codes of x, so that a multiset of it is disjoint from x,
// or a name that collides with x when the encoder's domain is full.
func distinctFrom(t testing.TB, c *Con2, x multiset.Multiset, prefix string, skip int) string {
	t.Helper()
	codes := map[int]bool{}
	for _, e := range x {
		v, err := c.encodeElem(e.Elem)
		if err != nil {
			t.Fatal(err)
		}
		codes[v] = true
	}
	for k := 0; k < 1000; k++ {
		e := fmt.Sprintf("%s%d", prefix, k)
		v, err := c.encodeElem(e)
		if err != nil {
			t.Fatal(err)
		}
		if !codes[v] {
			if skip == 0 {
				return e
			}
			skip--
		}
	}
	return fmt.Sprintf("%s%d", prefix, skip)
}

// proveCases returns the pairs TestProveDisjointMatchesMSM checks: one
// element of every multiplicity 1–300 against one element, so that
// every bit pattern up to 9 bits is a key point's multiplicity; many
// elements of mixed multiplicities against one (|X2| = 1); products of
// multiplicities on both sides; empty sides; random shapes; and
// intersecting multisets.
func proveCases(t testing.TB, c *Con2, rng *rand.Rand) [][2]multiset.Multiset {
	var cases [][2]multiset.Multiset
	a := multiset.New("a")
	b := multiset.New(distinctFrom(t, c, a, "b", 0))
	for m := 1; m <= 300; m++ {
		cases = append(cases, [2]multiset.Multiset{times("a", m), b})
	}
	var mixed multiset.Multiset
	for j := 1; j <= 40; j++ {
		mixed = multiset.Sum(mixed, times(fmt.Sprintf("m%d", j), j*7%300+1))
	}
	cases = append(cases, [2]multiset.Multiset{mixed, multiset.New(distinctFrom(t, c, mixed, "y", 0))})
	two := multiset.Sum(times(distinctFrom(t, c, mixed, "y", 0), 3), times(distinctFrom(t, c, mixed, "y", 1), 5))
	cases = append(cases, [2]multiset.Multiset{mixed, two})
	cases = append(cases,
		[2]multiset.Multiset{{}, b},
		[2]multiset.Multiset{a, {}},
		[2]multiset.Multiset{{}, {}},
		[2]multiset.Multiset{multiset.New("a", "b0", "c"), multiset.New("c")},
		[2]multiset.Multiset{multiset.New("a", "a"), multiset.New("a")},
	)
	vocab := make([]string, 48)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("v%d", i)
	}
	for range 60 {
		var x [2]multiset.Multiset
		for side, n := range []int{1 + rng.Intn(40), 1 + rng.Intn(6)} {
			for range n {
				x[side] = multiset.Sum(x[side], times(vocab[rng.Intn(len(vocab))], 1+rng.Intn(8)))
			}
		}
		cases = append(cases, x)
	}
	return cases
}

// TestProveDisjointMatchesMSM checks ProveDisjoint against proveByMSM
// at toy and default, under a hashing encoder, under one whose domain
// of three codes makes distinct elements collide, and under a
// collision-free dictionary.
func TestProveDisjointMatchesMSM(t *testing.T) {
	for _, preset := range []string{"toy", "default"} {
		pr := pairing.ByName(preset)
		accs := map[string]*Con2{
			"acc2":         KeyGenCon2Deterministic(pr, 512, HashEncoder{Q: 512}, []byte("prove")),
			"acc2-collide": KeyGenCon2Deterministic(pr, 4, HashEncoder{Q: 4}, []byte("prove")),
			"acc2-dict":    KeyGenCon2Deterministic(pr, 512, NewDictEncoder(512), []byte("prove")),
		}
		for name, c := range accs {
			t.Run(preset+"/"+name, func(t *testing.T) {
				disjoint, intersecting := 0, 0
				for _, x := range proveCases(t, c, rand.New(rand.NewSource(232))) {
					checkProve(t, c, x[0], x[1])
					if _, err := c.ProveDisjoint(x[0], x[1]); err == nil {
						disjoint++
					} else {
						intersecting++
					}
				}
				if disjoint == 0 || intersecting == 0 {
					t.Fatalf("%d disjoint and %d intersecting cases: both outcomes must occur", disjoint, intersecting)
				}
			})
		}
	}
}

// TestProveDisjointConcurrent proves many different shapes on 8
// goroutines at once and checks every proof against the reference, so
// that two calls sharing one scratch set fail, under -race at the
// latest.
func TestProveDisjointConcurrent(t *testing.T) {
	c := KeyGenCon2Deterministic(pairing.Toy(), 512, HashEncoder{Q: 512}, []byte("prove"))
	cases := proveCases(t, c, rand.New(rand.NewSource(8)))
	want := make([]ec.Point, len(cases))
	wantErr := make([]error, len(cases))
	for i, x := range cases {
		want[i], wantErr[i] = proveByMSM(c, x[0], x[1])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range len(cases) {
				i := (k*7 + g*53) % len(cases) // each goroutine its own order
				got, err := c.ProveDisjoint(cases[i][0], cases[i][1])
				if !errors.Is(err, wantErr[i]) && err != wantErr[i] {
					errs <- fmt.Errorf("case %d: error %v, want %v", i, err, wantErr[i])
					return
				}
				if err == nil && !got.F1.Equal(want[i]) {
					errs <- fmt.Errorf("case %d: proof differs from the reference", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestProveDisjointAllocsDoNotGrow: once a scratch set has served a
// proof, a 200×10 proof allocates no more than a 20×2 one, which
// allocates next to nothing. Under a
// dictionary encoder, as the benchmark keys Construction 2, the 200×10
// proof has 209 distinct key indices with multiplicities up to 10, so
// every buffer fits the free list's cap (maxScratchBuf).
func TestProveDisjointAllocsDoNotGrow(t *testing.T) {
	c := KeyGenCon2Deterministic(pairing.Toy(), 256, NewDictEncoder(256), []byte("prove"))
	x1, x2 := benchMultiset("w", 200), benchMultiset("x", 10)
	small1, small2 := benchMultiset("w", 20), benchMultiset("x", 2)
	prove := func(x1, x2 multiset.Multiset) func() {
		return func() {
			if _, err := c.ProveDisjoint(x1, x2); err != nil {
				t.Fatal(err)
			}
		}
	}
	large := testing.AllocsPerRun(50, prove(x1, x2))
	small := testing.AllocsPerRun(50, prove(small1, small2))
	if large > small {
		t.Fatalf("a 200×10 proof allocates %.1f objects, a 20×2 proof %.1f", large, small)
	}
	if small > 2 {
		t.Fatalf("a proof on a reused scratch set allocates %.1f objects", small)
	}
}

// FuzzProveDisjoint checks ProveDisjoint against proveByMSM at toy on
// arbitrary pairs: each input byte adds to x1 (high bit clear) or x2
// (high bit set) one of eight elements (bits 0–2) with multiplicity
// 1–16 (bits 3–6). The encoder's domain of 15 codes makes distinct
// elements collide.
func FuzzProveDisjoint(f *testing.F) {
	c := KeyGenCon2Deterministic(pairing.Toy(), 16, HashEncoder{Q: 16}, []byte("fuzz"))
	f.Add([]byte{})
	f.Add([]byte{0x00})                   // empty x2
	f.Add([]byte{0x81})                   // empty x1
	f.Add([]byte{0x00, 0x81})             // one element each
	f.Add([]byte{0x78, 0x81})             // multiplicity 16
	f.Add([]byte{0x00, 0x80})             // the same element on both sides
	f.Add([]byte{0x7a, 0x73, 0x6c, 0x85}) // many multiplicities, |X2| = 1
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x85, 0x8e, 0x97})
	f.Fuzz(func(t *testing.T, data []byte) {
		x := [2]multiset.Multiset{{}, {}}
		for _, b := range data {
			x[b>>7] = multiset.Sum(x[b>>7], times(fmt.Sprintf("e%d", b&7), 1+int(b>>3&15)))
		}
		checkProve(t, c, x[0], x[1])
	})
}

// TestProveDisjointDictOrder: a DictEncoder numbers elements on first
// sight, so ProveDisjoint must show it x1's elements and then x2's,
// each in sorted order, as Setup and every other party do.
func TestProveDisjointDictOrder(t *testing.T) {
	dict := NewDictEncoder(64)
	c := KeyGenCon2Deterministic(pairing.Toy(), 64, dict, []byte("prove"))
	x1 := multiset.New("m", "c", "x", "a", "k")
	x2 := multiset.New("z", "b", "q")
	if _, err := c.ProveDisjoint(x1, x2); err != nil {
		t.Fatal(err)
	}
	want := 1
	for _, x := range []multiset.Multiset{x1, x2} {
		for _, e := range x {
			if got, _ := dict.Encode(e.Elem); got != want {
				t.Fatalf("%q numbered %d, want %d", e.Elem, got, want)
			}
			want++
		}
	}
}

// TestProveDisjointEachMatchesMSM proves every case of proveCases in
// one ProveDisjointEach, whose sets of proofs share their rounds, at
// toy and default, and checks each proof and error against proveByMSM:
// failing pairs among the others leave them unchanged.
func TestProveDisjointEachMatchesMSM(t *testing.T) {
	for _, preset := range []string{"toy", "default"} {
		t.Run(preset, func(t *testing.T) {
			c := KeyGenCon2Deterministic(pairing.ByName(preset), 512, HashEncoder{Q: 512}, []byte("prove"))
			cases := proveCases(t, c, rand.New(rand.NewSource(233)))
			x1s, x2s := make([]multiset.Multiset, len(cases)), make([]multiset.Multiset, len(cases))
			for i, x := range cases {
				x1s[i], x2s[i] = x[0], x[1]
			}
			pfs, errs := make([]Proof, len(cases)), make([]error, len(cases))
			ProveDisjointEach(context.Background(), c, x1s, x2s, pfs, errs)
			for i, x := range cases {
				want, wantErr := proveByMSM(c, x[0], x[1])
				if !errors.Is(errs[i], wantErr) && errs[i] != wantErr {
					t.Fatalf("case %d: error %v, want %v", i, errs[i], wantErr)
				}
				if wantErr == nil && (!pfs[i].F1.Equal(want) || !pfs[i].F2.Inf) {
					t.Fatalf("case %d: proof differs from the reference", i)
				}
			}
		})
	}
}
