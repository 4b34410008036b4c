package main

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/multiset"
	"github.com/vchain-go/vchain/internal/proofs"
	"github.com/vchain-go/vchain/internal/storage"
)

// spyAcc records which Accumulator methods were reached.
type spyAcc struct{ seen map[string]bool }

func (s spyAcc) Name() string { s.seen["Name"] = true; return "" }
func (s spyAcc) Setup(multiset.Multiset) (accumulator.Acc, error) {
	s.seen["Setup"] = true
	return accumulator.Acc{}, nil
}
func (s spyAcc) ProveDisjoint(_, _ multiset.Multiset) (accumulator.Proof, error) {
	s.seen["ProveDisjoint"] = true
	return accumulator.Proof{}, nil
}
func (s spyAcc) VerifyDisjoint(_, _ accumulator.Acc, _ accumulator.Proof) bool {
	s.seen["VerifyDisjoint"] = true
	return true
}
func (s spyAcc) VerifyDisjointBatch([]accumulator.DisjointCheck) bool {
	s.seen["VerifyDisjointBatch"] = true
	return true
}
func (s spyAcc) SupportsAgg() bool   { s.seen["SupportsAgg"] = true; return true }
func (s spyAcc) MaxCardinality() int { s.seen["MaxCardinality"] = true; return -1 }
func (s spyAcc) Sum(...accumulator.Acc) (accumulator.Acc, error) {
	s.seen["Sum"] = true
	return accumulator.Acc{}, nil
}
func (s spyAcc) ProofSum(...accumulator.Proof) (accumulator.Proof, error) {
	s.seen["ProofSum"] = true
	return accumulator.Proof{}, nil
}
func (s spyAcc) AccEqual(_, _ accumulator.Acc) bool   { s.seen["AccEqual"] = true; return true }
func (s spyAcc) ValidateAcc(accumulator.Acc) bool     { s.seen["ValidateAcc"] = true; return true }
func (s spyAcc) ValidateProof(accumulator.Proof) bool { s.seen["ValidateProof"] = true; return true }
func (s spyAcc) AccBytes(accumulator.Acc) []byte      { s.seen["AccBytes"] = true; return nil }
func (s spyAcc) ProofBytes(accumulator.Proof) []byte  { s.seen["ProofBytes"] = true; return nil }
func (s spyAcc) AccFromBytes([]byte) (accumulator.Acc, error) {
	s.seen["AccFromBytes"] = true
	return accumulator.Acc{}, nil
}
func (s spyAcc) ProofFromBytes([]byte) (accumulator.Proof, error) {
	s.seen["ProofFromBytes"] = true
	return accumulator.Proof{}, nil
}

// spyBackend records which Backend methods were reached.
type spyBackend struct{ seen map[string]bool }

func (s spyBackend) Len() int                 { s.seen["Len"] = true; return 0 }
func (s spyBackend) Append([]byte) error      { s.seen["Append"] = true; return nil }
func (s spyBackend) Read(int) ([]byte, error) { s.seen["Read"] = true; return nil, nil }
func (s spyBackend) Truncate(int) error       { s.seen["Truncate"] = true; return nil }
func (s spyBackend) Close() error             { s.seen["Close"] = true; return nil }

// callAll calls every method of the interface type iface on v with
// zero arguments and returns the method names.
func callAll(v any, iface reflect.Type) []string {
	rv := reflect.ValueOf(v)
	var names []string
	for i := 0; i < iface.NumMethod(); i++ {
		m := iface.Method(i)
		names = append(names, m.Name)
		var args []reflect.Value
		n := m.Type.NumIn()
		if m.Type.IsVariadic() {
			n-- // a variadic method is called with no variadic arguments
		}
		for j := 0; j < n; j++ {
			args = append(args, reflect.Zero(m.Type.In(j)))
		}
		rv.MethodByName(m.Name).Call(args)
	}
	return names
}

// TestDecoratorsForwardEveryMethod: with recording on and off, each
// method of the two decorated interfaces reaches the wrapped value.
func TestDecoratorsForwardEveryMethod(t *testing.T) {
	for _, on := range []bool{false, true} {
		tr := newTracer("gob_prove")
		tr.on.Store(on)

		acc := spyAcc{map[string]bool{}}
		for _, name := range callAll(tracedAcc{acc, tr}, reflect.TypeOf((*accumulator.Accumulator)(nil)).Elem()) {
			if !acc.seen[name] {
				t.Errorf("recording=%v: tracedAcc does not forward %s", on, name)
			}
		}
		be := spyBackend{map[string]bool{}}
		for _, name := range callAll(&tracedBackend{Backend: be, tr: tr}, reflect.TypeOf((*storage.Backend)(nil)).Elem()) {
			if !be.seen[name] {
				t.Errorf("recording=%v: tracedBackend does not forward %s", on, name)
			}
		}
		if n := len(tr.named(spanProve, spanAccSetup, spanAccSum, spanVerifyOne, spanVerifyBatch, spanAppend, spanRead)); on && n != 8 || !on && n != 0 {
			t.Errorf("recording=%v: %d spans recorded", on, n)
		}
	}
}

// TestTracedRunIsTheSameProgram: a chain mined and queried through the
// timing decorators has byte-identical headers and VOs to one built on
// the bare accumulator and backend, and stores records of the same
// sizes, so what the traced run measures is the program the untraced
// run measures. (Record bytes cannot be compared: a record is a gob of
// maps, which gob writes in a different order each time.)
func TestTracedRunIsTheSameProgram(t *testing.T) {
	ds, err := genDataset(mini, 11, mini.ChainBlocks)
	if err != nil {
		t.Fatal(err)
	}
	queries := genQueries(mini, ds, 11, 8, mini.ChainBlocks)

	type built struct {
		headers []chain.Header
		records []int
		vos     [][]byte
	}
	build := func(traced bool) built {
		q := keyCapacity(ds)
		// A dictionary encoder numbers elements in order of first use, so
		// each side gets its own, and proofs run inline to fix that order.
		var acc accumulator.Accumulator = accumulator.KeyGenCon2Deterministic(pairing.ByName(mini.Preset), q, accumulator.NewDictEncoder(q), []byte("conformance"))
		mem := storage.NewMemory()
		var be storage.Backend = mem
		if traced {
			tr := newTracer("gob_prove")
			tr.on.Store(true)
			acc = tracedAcc{acc, tr}
			be = &tracedBackend{Backend: mem, tr: tr}
		}
		b := &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: mini.SkipSize, Width: ds.Width}
		node, err := core.NewFullNodeOn(0, b, be, core.WithADSCache(mini.ADSCacheBlocks))
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		node.Proofs = proofs.New(acc, proofs.Options{Workers: 1})
		for h, objs := range ds.Blocks {
			if _, err := node.MineBlock(objs, int64(h)); err != nil {
				t.Fatal(err)
			}
		}
		out := built{headers: node.Headers()}
		for i := 0; i < mem.Len(); i++ {
			rec, err := mem.Read(i)
			if err != nil {
				t.Fatal(err)
			}
			out.records = append(out.records, len(rec))
		}
		light := chain.NewLightStore(0)
		if err := light.Sync(out.headers); err != nil {
			t.Fatal(err)
		}
		ver := &core.Verifier{Acc: acc, Light: light, Workers: 1}
		for _, q := range queries {
			parts, err := node.TimeWindowParts(context.Background(), q, false)
			if err != nil {
				t.Fatal(err)
			}
			objs, err := ver.VerifyWindowParts(q, parts)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameObjects(objs, oracle(ds, q, q.StartBlock, q.EndBlock)); err != nil {
				t.Fatal(err)
			}
			for _, p := range parts {
				out.vos = append(out.vos, core.EncodeVO(acc, p.VO))
			}
		}
		return out
	}

	bare, traced := build(false), build(true)
	if !reflect.DeepEqual(bare.headers, traced.headers) {
		t.Error("headers differ between the bare and the decorated chain")
	}
	if !reflect.DeepEqual(bare.records, traced.records) {
		t.Errorf("stored record sizes differ:\n bare      %v\n decorated %v", bare.records, traced.records)
	}
	if len(bare.vos) != len(traced.vos) {
		t.Fatalf("bare: %d VOs; decorated: %d", len(bare.vos), len(traced.vos))
	}
	for i := range bare.vos {
		if !bytes.Equal(bare.vos[i], traced.vos[i]) {
			t.Errorf("VO %d differs", i)
		}
	}
}
