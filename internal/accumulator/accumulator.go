// Package accumulator implements the two cryptographic multiset
// accumulator constructions of the vChain paper (§5.2):
//
//   - Construction 1 (q-SDH, after Papamanthou et al.): acc(X) =
//     g^{∏(x_i+s)}; a disjointness proof is the pair (g^{Q1(s)},
//     g^{Q2(s)}) of Bézout cofactors with P1·Q1 + P2·Q2 = 1, verified
//     by ê(acc(X1), F1)·ê(acc(X2), F2) = ê(g, g).
//
//   - Construction 2 (q-DHE, after Zhang et al.): acc(X) = (g^{A(s)},
//     g^{B(s)}) with A(s)=Σ s^{x_i} and B(s)=Σ s^{q−x_i}; a
//     disjointness proof is π = g^{A(X1)(s)·B(X2)(s)}, computable from
//     the public key exactly when the s^q term is absent, i.e. when the
//     multisets are disjoint. Verified by ê(dA(X1), dB(X2)) = ê(π, g).
//     Construction 2 additionally supports Sum (aggregating
//     accumulation values) and ProofSum (aggregating proofs that share
//     the same second multiset), which power vChain's online batch
//     verification (§6.3) and lazy subscription authentication (§7.2).
//
// Both constructions share a Type-1 pairing group; "g^x" below is
// scalar multiplication on the curve.
package accumulator

import (
	"context"
	"errors"
	"fmt"
	"reflect"

	"github.com/vchain-go/vchain/internal/crypto/ec"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/multiset"
)

// Acc is an accumulation value. Construction 1 uses only A;
// Construction 2 uses the pair (A, B) = (dA, dB).
type Acc struct {
	A ec.Point
	B ec.Point
}

// Proof is a set-disjointness proof. Construction 1 uses the Bézout
// pair (F1, F2); Construction 2 uses only F1 = π.
type Proof struct {
	F1 ec.Point
	F2 ec.Point
}

// DisjointCheck is one deferred disjointness verification: the triple
// that would be passed to VerifyDisjoint. Batched verifiers collect
// these during a structural pass and flush them together.
type DisjointCheck struct {
	Acc1, Acc2 Acc
	Proof      Proof
}

// Accumulator is the interface shared by both constructions. An
// implementation carries the public key material; the secret trapdoor
// is destroyed after KeyGen (Setup and ProveDisjoint work from the
// public key alone, mirroring the paper where miners hold no secrets).
type Accumulator interface {
	// Name identifies the construction ("acc1" or "acc2").
	Name() string
	// Setup computes acc(X) from the public key.
	Setup(x multiset.Multiset) (Acc, error)
	// ProveDisjoint produces a proof that x1 ∩ x2 = ∅. It fails when
	// the multisets intersect or exceed the key's capacity.
	ProveDisjoint(x1, x2 multiset.Multiset) (Proof, error)
	// VerifyDisjoint checks a disjointness proof against two
	// accumulation values.
	VerifyDisjoint(acc1, acc2 Acc, proof Proof) bool
	// VerifyDisjointBatch checks many disjointness proofs together,
	// sharing one final exponentiation (and one right-hand-side Miller
	// loop) across the whole batch. It returns true iff every check
	// would pass VerifyDisjoint individually, up to the randomized
	// batching's negligible (≤ 2^-63) false-accept probability; a batch
	// containing any invalid proof is otherwise rejected. An empty
	// batch is vacuously true.
	VerifyDisjointBatch(checks []DisjointCheck) bool
	// SupportsAgg reports whether Sum/ProofSum are available
	// (Construction 2 only).
	SupportsAgg() bool
	// MaxCardinality returns the largest multiset cardinality the key
	// can accumulate, or -1 when unbounded (Construction 2). Callers
	// use it to pre-check feasibility before scheduling proof work.
	MaxCardinality() int
	// Sum aggregates accumulation values: Sum(acc(X1),…,acc(Xn)) =
	// acc(X1+…+Xn) under multiset sum.
	Sum(accs ...Acc) (Acc, error)
	// ProofSum aggregates disjointness proofs that share the same
	// second multiset.
	ProofSum(proofs ...Proof) (Proof, error)
	// AccEqual reports equality of accumulation values.
	AccEqual(a, b Acc) bool
	// ValidateAcc checks that an untrusted accumulation value consists
	// of points on the curve (deserialization hygiene).
	ValidateAcc(a Acc) bool
	// ValidateProof checks that an untrusted proof consists of points
	// on the curve.
	ValidateProof(p Proof) bool
	Codec
}

// Codec is the byte encoding of one construction's values over one
// pairing preset: everything a decoder of untrusted bytes needs, and
// no key. Every Accumulator is one; NewCodec builds one from names.
type Codec interface {
	// AccBytes serializes an accumulation value (for hashing into
	// block headers and for VO size accounting).
	AccBytes(a Acc) []byte
	// ProofBytes serializes a proof (for VO size accounting).
	ProofBytes(p Proof) []byte
	// AccFromBytes decodes an AccBytes encoding, validating curve
	// membership of every point (wire hygiene for untrusted VOs).
	AccFromBytes(b []byte) (Acc, error)
	// ProofFromBytes decodes a ProofBytes encoding, validating curve
	// membership.
	ProofFromBytes(b []byte) (Proof, error)
}

// NewCodec returns the codec of the named construction ("acc1" or
// "acc2", as Accumulator.Name reports them) over pr. It holds no key:
// a light client that knows only a deployment's names decodes its VOs
// with it, and the verifier still checks every point against its own
// accumulator.
func NewCodec(name string, pr *pairing.Params) (Codec, error) {
	switch name {
	case "acc1":
		return &Con1{pr: pr}, nil
	case "acc2":
		return &Con2{pr: pr}, nil
	}
	return nil, fmt.Errorf("accumulator: unknown construction %q (known: acc1, acc2)", name)
}

// ParamsOf returns the pairing parameters a computes over. The
// constructions of this package report their own; a decorator that
// embeds the Accumulator interface (the tracing and counting wrappers
// of tests and harnesses) is looked through to the accumulator it
// forwards to. Any other implementation is an error.
func ParamsOf(a Accumulator) (*pairing.Params, error) {
	for ; a != nil; a = embedded(a) {
		if p, ok := a.(interface{ Params() *pairing.Params }); ok {
			return p.Params(), nil
		}
	}
	return nil, errors.New("accumulator: cannot tell the pairing parameters of this accumulator")
}

// Number hands x's elements, in order, to a's element encoder, looked
// through decorators as ParamsOf does. A DictEncoder numbers elements
// on first sight, so a caller about to prove in parallel numbers its
// clauses first, and the ids, with them the proof bytes, do not depend
// on the schedule. An encoding error is left to the proof that needs
// the element. Construction 1 has no encoder.
func Number(a Accumulator, x multiset.Multiset) {
	for ; a != nil; a = embedded(a) {
		if c, ok := a.(*Con2); ok {
			c.encode(nil, x)
			return
		}
	}
}

// embedded returns the Accumulator that the decorator a embeds, or nil.
func embedded(a Accumulator) Accumulator {
	v := reflect.ValueOf(a)
	if v.Kind() == reflect.Pointer && !v.IsNil() {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return nil
	}
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.Anonymous && f.Type == accumulatorType {
			inner, _ := v.Field(i).Interface().(Accumulator)
			return inner
		}
	}
	return nil
}

var accumulatorType = reflect.TypeFor[Accumulator]()

// Pair is one union for UnionEach: multisets X1 and X2 with their
// digests Acc1 = acc(X1) and Acc2 = acc(X2).
type Pair struct {
	X1, X2     multiset.Multiset
	Acc1, Acc2 Acc
}

// SetupEach returns acc(x) for every x in xs. Construction 2 computes
// them together, in one point summation (Con2.SetupEach). Construction
// 1, and any Accumulator without a SetupEach method (a wrapper that
// forwards only this package's interface), runs Setup per item.
func SetupEach(a Accumulator, xs []multiset.Multiset) ([]Acc, error) {
	if e, ok := a.(interface {
		SetupEach(xs []multiset.Multiset) ([]Acc, error)
	}); ok {
		return e.SetupEach(xs)
	}
	return each(xs, a.Setup)
}

// UnionEach returns acc(X1 ∪ X2) for every pair, for the
// per-element-max union of Def. 6.1. Construction 2's digest is linear
// in the multiplicities, so Con2.UnionEach pays for each intersection
// only, and computes all pairs together. Construction 1's digest is
// g^{∏(x_i+s)}: a union multiplies in the exponent, which no group
// operation on the two digests does, so it runs Setup over each union,
// as does any Accumulator without a UnionEach method.
func UnionEach(a Accumulator, ps []Pair) ([]Acc, error) {
	if e, ok := a.(interface {
		UnionEach(ps []Pair) ([]Acc, error)
	}); ok {
		return e.UnionEach(ps)
	}
	return each(ps, func(p Pair) (Acc, error) { return a.Setup(multiset.Union(p.X1, p.X2)) })
}

// SumEach returns Sum(groups[i]...) for every group: Construction 2
// computes them together (Con2.SumEach), and any Accumulator without a
// SumEach method calls Sum per group.
func SumEach(a Accumulator, groups [][]Acc) ([]Acc, error) {
	if e, ok := a.(interface {
		SumEach(groups [][]Acc) ([]Acc, error)
	}); ok {
		return e.SumEach(groups)
	}
	return each(groups, func(g []Acc) (Acc, error) { return a.Sum(g...) })
}

// ProveDisjointEach sets pfs[i], errs[i] to ProveDisjoint(x1s[i],
// x2s[i]) for every i. Construction 2 computes the proofs together
// (Con2.ProveDisjointEach), their key-point sums sharing affine rounds
// and so their inversions; Construction 1, and any Accumulator without
// a ProveDisjointEach method, proves them one by one, and once ctx is
// done fails the pairs not yet proved with ctx's error.
func ProveDisjointEach(ctx context.Context, a Accumulator, x1s, x2s []multiset.Multiset, pfs []Proof, errs []error) {
	if e, ok := a.(interface {
		ProveDisjointEach(x1s, x2s []multiset.Multiset, pfs []Proof, errs []error)
	}); ok {
		e.ProveDisjointEach(x1s, x2s, pfs, errs)
		return
	}
	for i := range x1s {
		if errs[i] = ctx.Err(); errs[i] == nil {
			pfs[i], errs[i] = a.ProveDisjoint(x1s[i], x2s[i])
		}
	}
}

// each is the per-item fallback of the batch functions.
func each[T any](items []T, f func(T) (Acc, error)) ([]Acc, error) {
	out := make([]Acc, len(items))
	for i, it := range items {
		var err error
		if out[i], err = f(it); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ErrNotDisjoint is returned by ProveDisjoint when the multisets share
// an element: no valid proof exists (unforgeability).
var ErrNotDisjoint = errors.New("accumulator: multisets are not disjoint")

// ErrCapacity is returned when a multiset exceeds the public key's
// capacity bound q.
var ErrCapacity = errors.New("accumulator: multiset exceeds key capacity")

// ErrAggUnsupported is returned by Sum/ProofSum on Construction 1.
var ErrAggUnsupported = errors.New("accumulator: construction does not support aggregation")

func capErr(what string, n, q int) error {
	return fmt.Errorf("%w: %s has %d occurrences, key capacity %d", ErrCapacity, what, n, q)
}

// readPoint decodes one point from the front of b, returning the rest.
// The self-delimiting framing (needed because concatenated encodings
// such as F1‖F2 must parse unambiguously) is owned by ec.Curve.
func readPoint(c *ec.Curve, b []byte) (ec.Point, []byte, error) {
	p, rest, err := c.ReadPoint(b)
	if err != nil {
		return ec.Point{}, nil, fmt.Errorf("accumulator: %w", err)
	}
	return p, rest, nil
}
