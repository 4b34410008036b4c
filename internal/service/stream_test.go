package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/subscribe"
)

// streamEnv is a served full node the test mines into incrementally,
// with ProcessBlock fan-out after every block — the real miner loop.
type streamEnv struct {
	srv    *Server
	addr   string
	acc    accumulator.Accumulator
	node   *core.FullNode
	height int
}

func newStreamEnv(t *testing.T, cfg ServerConfig) *streamEnv {
	t.Helper()
	acc := accumulator.KeyGenCon2Deterministic(pairing.Toy(), 512, accumulator.HashEncoder{Q: 512}, []byte("stream"))
	b := &core.Builder{Acc: acc, Mode: core.ModeBoth, SkipSize: 2, Width: 4}
	node := core.NewFullNode(0, b)
	srv := NewServer(node, cfg)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &streamEnv{srv: srv, addr: addr, acc: acc, node: node}
}

// mine appends one block of objects and fans out due publications.
func (e *streamEnv) mine(t *testing.T, objs []chain.Object) {
	t.Helper()
	if _, err := e.node.MineBlock(objs, int64(e.height)); err != nil {
		t.Fatal(err)
	}
	if err := e.srv.ProcessBlock(e.height); err != nil {
		t.Fatal(err)
	}
	e.height++
}

// block builds a one-object block carrying the given keywords.
func block(id int, kws ...string) []chain.Object {
	return []chain.Object{{ID: chain.ObjectID(id), TS: int64(id), V: []int64{4}, W: kws}}
}

func (e *streamEnv) dialSub(t *testing.T, q core.Query) (*Client, *Subscription, *chain.LightStore) {
	t.Helper()
	cli, err := Dial(e.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	light := chain.NewLightStore(0)
	sub, err := cli.SubscribeCtx(context.Background(), q, SubscribeConfig{Acc: e.acc, Light: light})
	if err != nil {
		t.Fatal(err)
	}
	return cli, sub, light
}

func recv(t *testing.T, sub *Subscription) Delivery {
	t.Helper()
	select {
	case d, ok := <-sub.C:
		if !ok {
			t.Fatal("stream closed unexpectedly")
		}
		return d
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a delivery")
		panic("unreachable")
	}
}

func sedanQuery() core.Query {
	return core.Query{Bool: core.CNF{core.KeywordClause("sedan")}, Width: 4}
}

// TestStreamEager: a TCP light client registers a subscription and
// receives one verified publication per mined block, matches and
// mismatches alike — the acceptance scenario's eager half.
func TestStreamEager(t *testing.T) {
	env := newStreamEnv(t, ServerConfig{})
	_, sub, _ := env.dialSub(t, sedanQuery())

	env.mine(t, block(1, "sedan", "benz")) // result
	env.mine(t, block(2, "van", "audi"))   // mismatch
	env.mine(t, block(3, "sedan"))         // result

	wantObjs := []int{1, 0, 1}
	for i, want := range wantObjs {
		d := recv(t, sub)
		if d.Err != nil {
			t.Fatalf("pub %d: verification failed: %v", i, d.Err)
		}
		if len(d.Objects) != want {
			t.Fatalf("pub %d: %d objects, want %d", i, len(d.Objects), want)
		}
		if d.Pub.From != i || d.Pub.To != i {
			t.Fatalf("pub %d covers [%d,%d]", i, d.Pub.From, d.Pub.To)
		}
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.C; ok {
		t.Fatal("stream not closed after Close")
	}
	if got := env.srv.Subscriptions(); len(got) != 0 {
		t.Fatalf("server still has subscriptions %v", got)
	}
}

// TestStreamLazy: in lazy mode mismatch blocks accumulate into spans;
// a result block (or unsubscribe) flushes them. The client verifies
// every span against its own headers.
func TestStreamLazy(t *testing.T) {
	env := newStreamEnv(t, ServerConfig{
		Subscriptions: subscribe.Options{LazyThreshold: subscribe.DefaultLazyThreshold},
	})
	_, sub, _ := env.dialSub(t, sedanQuery())

	env.mine(t, block(1, "van"))   // pending
	env.mine(t, block(2, "truck")) // pending
	env.mine(t, block(3, "sedan")) // flush [0,2]
	d := recv(t, sub)
	if d.Err != nil {
		t.Fatalf("lazy span rejected: %v", d.Err)
	}
	if d.Pub.From != 0 || d.Pub.To != 2 {
		t.Fatalf("lazy span [%d,%d], want [0,2]", d.Pub.From, d.Pub.To)
	}
	if len(d.Objects) != 1 {
		t.Fatalf("lazy span results %d, want 1", len(d.Objects))
	}

	env.mine(t, block(4, "van")) // pending again
	env.mine(t, block(5, "van")) // pending
	// Close flushes the final pending span through the ack.
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	d = recv(t, sub)
	if d.Err != nil {
		t.Fatalf("final flush rejected: %v", d.Err)
	}
	if d.Pub.From != 3 || d.Pub.To != 4 {
		t.Fatalf("final span [%d,%d], want [3,4]", d.Pub.From, d.Pub.To)
	}
	if _, ok := <-sub.C; ok {
		t.Fatal("stream not closed after final flush")
	}
}

// TestStreamMultipleSubscribers: two clients with different queries
// each get exactly their own publications.
func TestStreamMultipleSubscribers(t *testing.T) {
	env := newStreamEnv(t, ServerConfig{})
	_, subA, _ := env.dialSub(t, sedanQuery())
	_, subB, _ := env.dialSub(t, core.Query{Bool: core.CNF{core.KeywordClause("van")}, Width: 4})

	env.mine(t, block(1, "sedan"))
	env.mine(t, block(2, "van"))

	for i := 0; i < 2; i++ {
		a, b := recv(t, subA), recv(t, subB)
		if a.Err != nil || b.Err != nil {
			t.Fatalf("block %d: a=%v b=%v", i, a.Err, b.Err)
		}
		if a.Pub.QueryID == b.Pub.QueryID {
			t.Fatal("publications share a QueryID across subscribers")
		}
	}
}

// TestStreamAdversarial is the end-to-end tampering suite: the SP
// mutates pushed publications and the client stream must reject every
// one of them with a typed verification error — tampered results are
// never delivered.
func TestStreamAdversarial(t *testing.T) {
	t.Run("flipped-object-keywords", func(t *testing.T) {
		// The SP swaps the matching object's keywords: the object no
		// longer satisfies the query → soundness violation.
		env := newStreamEnv(t, ServerConfig{})
		env.srv.tamperPub = func(p *subscribe.Publication) *subscribe.Publication {
			flipFirstResult(p.VO, func(o *chain.Object) { o.W = []string{"van"} })
			return p
		}
		_, sub, _ := env.dialSub(t, sedanQuery())
		env.mine(t, block(1, "sedan"))
		d := recv(t, sub)
		if !errors.Is(d.Err, core.ErrSoundness) {
			t.Fatalf("want ErrSoundness, got %v", d.Err)
		}
		if d.Objects != nil {
			t.Fatal("tampered publication delivered objects")
		}
	})

	t.Run("flipped-object-id", func(t *testing.T) {
		// The SP rewrites the object's identity: the Merkle root no
		// longer reconstructs → completeness violation.
		env := newStreamEnv(t, ServerConfig{})
		env.srv.tamperPub = func(p *subscribe.Publication) *subscribe.Publication {
			flipFirstResult(p.VO, func(o *chain.Object) { o.ID += 1000 })
			return p
		}
		_, sub, _ := env.dialSub(t, sedanQuery())
		env.mine(t, block(1, "sedan"))
		d := recv(t, sub)
		if !errors.Is(d.Err, core.ErrCompleteness) {
			t.Fatalf("want ErrCompleteness, got %v", d.Err)
		}
		if d.Objects != nil {
			t.Fatal("tampered publication delivered objects")
		}
	})

	t.Run("truncated-span", func(t *testing.T) {
		// The SP claims a span ending before it starts.
		env := newStreamEnv(t, ServerConfig{})
		env.srv.tamperPub = func(p *subscribe.Publication) *subscribe.Publication {
			p.To = p.From - 1
			return p
		}
		_, sub, _ := env.dialSub(t, sedanQuery())
		env.mine(t, block(1, "sedan"))
		d := recv(t, sub)
		if !errors.Is(d.Err, core.ErrCompleteness) {
			t.Fatalf("want ErrCompleteness, got %v", d.Err)
		}
		if d.Objects != nil {
			t.Fatal("tampered publication delivered objects")
		}
	})

	t.Run("withheld-publication-gap", func(t *testing.T) {
		// The SP silently drops a block's publication: each remaining
		// publication verifies on its own, but the stream's continuity
		// check catches the hole.
		env := newStreamEnv(t, ServerConfig{})
		drop := false
		env.srv.tamperPub = func(p *subscribe.Publication) *subscribe.Publication {
			if drop {
				drop = false
				return nil
			}
			return p
		}
		_, sub, _ := env.dialSub(t, sedanQuery())
		env.mine(t, block(1, "sedan"))
		d := recv(t, sub)
		if d.Err != nil {
			t.Fatalf("honest pub rejected: %v", d.Err)
		}
		drop = true
		env.mine(t, block(2, "sedan")) // dropped by the SP
		env.mine(t, block(3, "sedan"))
		d = recv(t, sub)
		if !errors.Is(d.Err, core.ErrCompleteness) {
			t.Fatalf("gap not detected: %v", d.Err)
		}
	})

	t.Run("stale-query-id", func(t *testing.T) {
		// The SP redirects one subscriber's publication to another
		// subscription: the VO proves the wrong query's traversal and
		// must fail that subscriber's verification.
		env := newStreamEnv(t, ServerConfig{})
		_, subSedan, _ := env.dialSub(t, sedanQuery())
		cliVan, subVan, _ := env.dialSub(t, core.Query{Bool: core.CNF{core.KeywordClause("van")}, Width: 4})
		env.srv.tamperPub = func(p *subscribe.Publication) *subscribe.Publication {
			if p.QueryID == subSedan.ID {
				p.QueryID = subVan.ID
			}
			return p
		}
		env.mine(t, block(1, "sedan", "benz"))
		// subVan receives two frames for its id: its own honest
		// mismatch pub and the redirected sedan pub; order is engine
		// id order. The redirected one must be rejected.
		var redirected *Delivery
		for i := 0; i < 2; i++ {
			d := recv(t, subVan)
			if d.Err != nil {
				redirected = &d
			}
		}
		if redirected == nil {
			t.Fatal("redirected publication was accepted by the wrong subscriber")
		}
		if !errors.Is(redirected.Err, core.ErrSoundness) && !errors.Is(redirected.Err, core.ErrCompleteness) {
			t.Fatalf("redirected pub: want a verification error, got %v", redirected.Err)
		}
		_ = cliVan
	})
}

// TestStreamTamperedAmongHonest: eight subscriptions with overlapping
// clauses share one connection, so their publications are verified in
// shared batches. The SP swaps one stream's proof for another valid
// curve point: that stream alone gets ErrSoundness, and its continuity
// anchor re-arms, so after a withheld publication its next honest one
// is accepted. The other seven deliver the naive scan's objects.
func TestStreamTamperedAmongHonest(t *testing.T) {
	env := newStreamEnv(t, ServerConfig{})
	cli, err := Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	kw := core.KeywordClause
	queries := []core.Query{
		{Bool: core.CNF{kw("sedan")}},
		{Bool: core.CNF{kw("van")}},
		{Bool: core.CNF{kw("sedan", "van")}},
		{Bool: core.CNF{kw("bmw")}},
		{Bool: core.CNF{kw("sedan"), kw("benz")}},
		{Bool: core.CNF{kw("van"), kw("audi", "bmw")}},
		{Bool: core.CNF{kw("benz")}},
		{Bool: core.CNF{kw("bmw"), kw("sedan")}},
	}
	light := chain.NewLightStore(0)
	var subs []*Subscription
	for _, q := range queries {
		q.Width = 4
		sub, err := cli.SubscribeCtx(context.Background(), q, SubscribeConfig{Acc: env.acc, Light: light})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	victim := subs[3] // "bmw": no block matches, so every publication carries proofs

	var mode string // "swap-proof", "drop" or honest
	env.srv.tamperPub = func(p *subscribe.Publication) *subscribe.Publication {
		if p.QueryID != victim.ID || mode == "" {
			return p
		}
		if mode == "drop" {
			return nil
		}
		// Publications may share VO nodes: tamper with a private copy.
		vo, err := core.DecodeVO(env.acc, core.EncodeVO(env.acc, p.VO))
		if err != nil {
			t.Error(err)
			return p
		}
		if !swapProof(env.acc, vo) {
			t.Error("victim publication carries no proof")
		}
		cp := *p
		cp.VO = vo
		return &cp
	}

	blocks := [][]chain.Object{
		{{ID: 1, TS: 1, V: []int64{4}, W: []string{"sedan", "benz"}}, {ID: 2, TS: 1, V: []int64{4}, W: []string{"van", "audi"}}},
		{{ID: 3, TS: 2, V: []int64{4}, W: []string{"van", "benz"}}, {ID: 4, TS: 2, V: []int64{4}, W: []string{"sedan", "audi"}}},
		{{ID: 5, TS: 3, V: []int64{4}, W: []string{"sedan", "benz"}}},
		{{ID: 6, TS: 4, V: []int64{4}, W: []string{"van", "audi"}}, {ID: 7, TS: 4, V: []int64{4}, W: []string{"sedan"}}},
	}
	for h, objs := range blocks {
		mode = map[int]string{1: "swap-proof", 2: "drop"}[h]
		env.mine(t, objs)
		for i, sub := range subs {
			if sub == victim && mode == "drop" {
				continue
			}
			d := recv(t, sub)
			if sub == victim && mode == "swap-proof" {
				if !errors.Is(d.Err, core.ErrSoundness) || d.Objects != nil {
					t.Fatalf("block %d: tampered stream got %v with %d objects, want ErrSoundness", h, d.Err, len(d.Objects))
				}
				continue
			}
			if d.Err != nil {
				t.Fatalf("block %d, stream %d: honest publication rejected: %v", h, i, d.Err)
			}
			if d.Pub.From != h || d.Pub.To != h {
				t.Fatalf("block %d, stream %d: publication covers [%d,%d]", h, i, d.Pub.From, d.Pub.To)
			}
			var want []chain.ObjectID
			for _, o := range objs {
				if sub.q.MatchesObject(o.V, o.W) {
					want = append(want, o.ID)
				}
			}
			var got []chain.ObjectID
			for _, o := range d.Objects {
				got = append(got, o.ID)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("block %d, stream %d: objects %v, naive scan %v", h, i, got, want)
			}
		}
	}
}

// TestBatchSyncFailsUncoveredOnly: when a batch's one header sync
// fails, the publications the light store does not cover yet fail
// with the sync error, and a covered publication in the same batch
// still verifies.
func TestBatchSyncFailsUncoveredOnly(t *testing.T) {
	env := newStreamEnv(t, ServerConfig{})
	cli, sub, light := env.dialSub(t, sedanQuery())
	env.mine(t, block(1, "sedan"))
	d := recv(t, sub)
	if d.Err != nil {
		t.Fatal(d.Err)
	}
	cli.Close() // every later header sync fails
	covered := &verifyJob{s: &Subscription{q: sedanQuery(), lastTo: -1}, pub: d.Pub}
	ahead := &verifyJob{s: &Subscription{q: sedanQuery(), lastTo: 0},
		pub: &subscribe.Publication{QueryID: sub.ID, From: 1, To: 1, VO: d.Pub.VO}}
	cli.verifyJobs(SubscribeConfig{Acc: env.acc, Light: light}, []*verifyJob{covered, ahead})
	if covered.d.Err != nil || len(covered.d.Objects) != 1 {
		t.Fatalf("covered publication: %d objects, err %v", len(covered.d.Objects), covered.d.Err)
	}
	if ahead.d.Err == nil || !strings.Contains(ahead.d.Err.Error(), "header sync for publication [1,1]") {
		t.Fatalf("uncovered publication: %v, want the header sync error", ahead.d.Err)
	}
}

// swapProof replaces the first disjointness proof in vo with another
// valid curve point: twice the proof. It reports whether vo held one.
func swapProof(acc accumulator.Accumulator, vo *core.VO) bool {
	swap := func(p *accumulator.Proof) {
		*p, _ = acc.ProofSum(*p, *p)
	}
	var walk func(n *core.NodeVO) bool
	walk = func(n *core.NodeVO) bool {
		if n == nil {
			return false
		}
		if n.Kind == core.KindMismatch && n.Proof != nil {
			swap(n.Proof)
			return true
		}
		return walk(n.Left) || walk(n.Right)
	}
	for i := range vo.Blocks {
		if s := vo.Blocks[i].Skip; s != nil && s.Proof != nil {
			swap(s.Proof)
			return true
		}
		if walk(vo.Blocks[i].Tree) {
			return true
		}
	}
	if len(vo.Groups) > 0 {
		swap(&vo.Groups[0].Proof)
		return true
	}
	return false
}

// flipFirstResult applies f to the first result object found in the VO.
func flipFirstResult(vo *core.VO, f func(*chain.Object)) {
	var walk func(n *core.NodeVO) bool
	walk = func(n *core.NodeVO) bool {
		if n == nil {
			return false
		}
		if n.Kind == core.KindResult && n.Obj != nil {
			f(n.Obj)
			return true
		}
		return walk(n.Left) || walk(n.Right)
	}
	for i := range vo.Blocks {
		if walk(vo.Blocks[i].Tree) {
			return
		}
	}
}

// TestSlowConsumerEviction: a subscriber whose outbound queue is full
// at fan-out time is evicted and its subscriptions deregistered — the
// mining path never blocks on it.
func TestSlowConsumerEviction(t *testing.T) {
	env := newStreamEnv(t, ServerConfig{SendQueue: 1})
	// Hand-build a connection whose writer never drains, so the queue
	// genuinely fills (over a real socket the kernel buffer would hide
	// the stall for a long time).
	sc := &serverConn{
		srv:  env.srv,
		out:  make(chan outFrame, 1),
		done: make(chan struct{}),
		subs: map[int]struct{}{},
		fc:   newFrameConn(nopConn{}, 0, 0),
	}
	id, err := env.srv.engine.Register(sedanQuery())
	if err != nil {
		t.Fatal(err)
	}
	env.srv.mu.Lock()
	env.srv.conns[sc] = struct{}{}
	env.srv.subOwner[id] = sc
	sc.subs[id] = struct{}{}
	env.srv.mu.Unlock()

	env.mine(t, block(1, "sedan")) // queued
	env.mine(t, block(2, "sedan")) // queue full → evicted
	if got := env.srv.Evictions(); got != 1 {
		t.Fatalf("evictions %d, want 1", got)
	}
	if subs := env.srv.Subscriptions(); len(subs) != 0 {
		t.Fatalf("evicted connection's subscriptions remain: %v", subs)
	}
	// Mining continues unaffected.
	env.mine(t, block(3, "sedan"))
}

// collidingKeyword mines block 1 (height 0) and returns a keyword
// absent from it whose encoding collides with the code of one of its
// elements: the SP cannot prove a subscription to it disjoint from a
// block with the same elements.
func collidingKeyword(t *testing.T, env *streamEnv) string {
	t.Helper()
	env.mine(t, block(1, "van", "audi"))
	ads, err := env.node.ADSAt(0)
	if err != nil {
		t.Fatal(err)
	}
	w := ads.BlockW()
	enc := accumulator.HashEncoder{Q: 512} // the env key's encoder
	codes := map[int]bool{}
	for _, e := range w {
		c, _ := enc.Encode(e.Elem)
		codes[c] = true
	}
	for i := 0; i < 1<<16; i++ {
		el := core.KeywordElement(fmt.Sprintf("absent-%d", i))
		if c, _ := enc.Encode(el); codes[c] && !w.IntersectsSet([]string{el}) {
			return fmt.Sprintf("absent-%d", i)
		}
	}
	t.Fatal("no colliding keyword found")
	return ""
}

// awaitEnd drains sub until its stream closes and returns the
// terminal delivery's error.
func awaitEnd(t *testing.T, sub *Subscription) error {
	t.Helper()
	var last error
	deadline := time.After(10 * time.Second)
	for {
		select {
		case d, open := <-sub.C:
			if !open {
				return last
			}
			if d.Pub == nil {
				last = d.Err
			}
		case <-deadline:
			t.Fatal("the stream did not end")
		}
	}
}

// TestUnprovableSubscriptionEndsItsStream: a subscription whose clause
// the SP cannot prove disjoint from a block (its keyword encodes to the
// code of an element of the block) ends its own stream with an error,
// while a second connection gets a verified publication for every
// block and mining continues.
func TestUnprovableSubscriptionEndsItsStream(t *testing.T) {
	env := newStreamEnv(t, ServerConfig{})
	kw := collidingKeyword(t, env)

	_, bad, _ := env.dialSub(t, core.Query{Bool: core.CNF{core.KeywordClause(kw)}, Width: 4})
	_, good, _ := env.dialSub(t, sedanQuery())
	env.mine(t, block(2, "van", "audi")) // collides: bad is dropped
	env.mine(t, block(3, "sedan"))
	env.mine(t, block(4, "truck"))
	for h := 1; h <= 3; h++ {
		d := recv(t, good)
		if d.Pub == nil || d.Err != nil || d.Pub.From != h || d.Pub.To != h {
			t.Fatalf("good stream at height %d: pub %+v, err %v", h, d.Pub, d.Err)
		}
	}
	awaitEnd(t, bad)
	if bad.Err() == nil {
		t.Error("the unprovable subscription's stream ended without an error")
	}
	if got := env.srv.Subscriptions(); !slices.Equal(got, []int{good.ID}) {
		t.Errorf("server subscriptions %v, want [%d]", got, good.ID)
	}
}

// TestDroppedSubscriptionSparesItsConnection: the SP drops one of two
// subscriptions on one client. Only that stream ends, with
// ErrSubscriptionDropped on its terminal delivery and from Err; the
// other stream keeps publishing, and the connection keeps answering
// calls.
func TestDroppedSubscriptionSparesItsConnection(t *testing.T) {
	env := newStreamEnv(t, ServerConfig{})
	kw := collidingKeyword(t, env)

	cli, good, light := env.dialSub(t, sedanQuery())
	bad, err := cli.SubscribeCtx(context.Background(), core.Query{Bool: core.CNF{core.KeywordClause(kw)}, Width: 4},
		SubscribeConfig{Acc: env.acc, Light: light})
	if err != nil {
		t.Fatal(err)
	}
	env.mine(t, block(2, "van", "audi")) // collides: bad is dropped
	env.mine(t, block(3, "sedan"))
	env.mine(t, block(4, "truck"))
	for h := 1; h <= 3; h++ {
		d := recv(t, good)
		if d.Pub == nil || d.Err != nil || d.Pub.From != h || d.Pub.To != h {
			t.Fatalf("good stream at height %d: pub %+v, err %v", h, d.Pub, d.Err)
		}
	}
	if err := awaitEnd(t, bad); !errors.Is(err, ErrSubscriptionDropped) {
		t.Errorf("terminal delivery %v, want ErrSubscriptionDropped", err)
	}
	if err := bad.Err(); !errors.Is(err, ErrSubscriptionDropped) {
		t.Errorf("Err() = %v, want ErrSubscriptionDropped", err)
	}
	if err := cli.SyncHeaders(context.Background(), chain.NewLightStore(0)); err != nil {
		t.Errorf("the connection stopped answering: %v", err)
	}
	if got := env.srv.Subscriptions(); !slices.Equal(got, []int{good.ID}) {
		t.Errorf("server subscriptions %v, want [%d]", got, good.ID)
	}
}

// TestStreamConnectionFailure: when the SP goes away mid-stream the
// channel closes and the failure is reported via Err — a dead SP is
// distinguishable from a clean unsubscribe.
func TestStreamConnectionFailure(t *testing.T) {
	env := newStreamEnv(t, ServerConfig{})
	_, sub, _ := env.dialSub(t, sedanQuery())
	env.mine(t, block(1, "sedan"))
	if d := recv(t, sub); d.Err != nil {
		t.Fatalf("honest pub rejected: %v", d.Err)
	}
	env.srv.Close() // SP dies
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-sub.C:
			if !ok {
				if sub.Err() == nil {
					t.Fatal("stream ended by server death but Err() is nil")
				}
				return
			}
		case <-deadline:
			t.Fatal("stream did not end after server close")
		}
	}
}

// TestSubscriptionQueueOverrun: the pending-publication queue is
// bounded; an SP flooding past it ends the stream with an overrun
// error instead of buffering without limit.
func TestSubscriptionQueueOverrun(t *testing.T) {
	s := &Subscription{
		ID:     1,
		c:      &Client{cfg: ClientConfig{SubQueue: 2}.withDefaults()},
		signal: make(chan struct{}, 1),
		lastTo: -1,
	}
	for i := 0; i < 3; i++ {
		s.enqueue(&Push{QueryID: 1, From: i, To: i})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failErr == nil {
		t.Fatal("queue overrun not detected")
	}
	if s.queue != nil {
		t.Fatal("overrun should drop the queue")
	}
}

// TestStreamOverrunUnsubscribes: a stream ended by a client-side queue
// overrun deregisters itself at the SP, so the engine stops computing
// proofs for it.
func TestStreamOverrunUnsubscribes(t *testing.T) {
	env := newStreamEnv(t, ServerConfig{})
	cli, err := Dial(env.addr, ClientConfig{SubQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	light := chain.NewLightStore(0)
	sub, err := cli.SubscribeCtx(context.Background(), sedanQuery(), SubscribeConfig{Acc: env.acc, Light: light})
	if err != nil {
		t.Fatal(err)
	}
	// Flood the queue directly (the real path needs a stalled verifier;
	// the overrun logic is the same).
	for i := 0; i < 3; i++ {
		sub.enqueue(&Push{QueryID: sub.ID, From: i, To: i})
	}
	// The stream must end with the overrun error and the server must
	// lose the subscription.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-sub.C:
			if ok {
				continue
			}
			if sub.Err() == nil {
				t.Fatal("overrun stream ended without error")
			}
			// Unsubscribe is sent before C closes; the server handles
			// it on its reader goroutine.
			for i := 0; i < 100; i++ {
				if len(env.srv.Subscriptions()) == 0 {
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
			t.Fatalf("server still has subscriptions %v after overrun", env.srv.Subscriptions())
		case <-deadline:
			t.Fatal("stream did not end after overrun")
		}
	}
}

// TestOutboundFrameCap: an oversized outbound message fails before any
// byte is written — the connection stays usable and the server turns
// an oversized RPC reply into an error response.
func TestOutboundFrameCap(t *testing.T) {
	fc := newFrameConn(nopConn{}, 2048, time.Second)
	big := &Response{Err: string(make([]byte, 4096))}
	err := fc.writeFrame(big)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	if err := fc.writeFrame(&Response{Seq: 1}); err != nil {
		t.Fatalf("connection unusable after pre-write rejection: %v", err)
	}
}

// nopConn is a no-op net.Conn for hand-built server connections.
type nopConn struct{}

func (nopConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (nopConn) Write(b []byte) (int, error)      { return len(b), nil }
func (nopConn) Close() error                     { return nil }
func (nopConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (nopConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (nopConn) SetDeadline(time.Time) error      { return nil }
func (nopConn) SetReadDeadline(time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }

// TestSubscribeAckPrecedesFirstPush: the SP queues a subscribe ack
// ahead of the subscription's first push, and the client registers the
// stream as it reads the ack, so a stream opened while blocks are mined
// loses none of its publications. One goroutine mines without pause
// while the client subscribes again and again; a recorder on the push
// path logs every publication per subscription, and each stream must
// deliver exactly that sequence. The miner holds between blocks only
// while a stream unsubscribes, so that every logged publication was
// pushed before the unsubscribe ack.
func TestSubscribeAckPrecedesFirstPush(t *testing.T) {
	// The miner does not wait for the writer: a queue deep enough for a
	// scheduling stall keeps a slow-consumer eviction out of the test.
	env := newStreamEnv(t, ServerConfig{SendQueue: 4096})
	var mu sync.Mutex
	logged := map[int][][2]int{}
	env.srv.tamperPub = func(p *subscribe.Publication) *subscribe.Publication {
		mu.Lock()
		logged[p.QueryID] = append(logged[p.QueryID], [2]int{p.From, p.To})
		mu.Unlock()
		return p
	}

	stop := make(chan struct{})
	hold := make(chan chan struct{})
	minerDone := make(chan struct{})
	var minerErr error
	go func() {
		defer close(minerDone)
		for {
			select {
			case <-stop:
				return
			case resume := <-hold:
				select {
				case <-resume:
				case <-stop:
					return
				}
			default:
			}
			// Every block matches: its publication needs no proof, so
			// a push can follow a registration closely.
			if _, err := env.node.MineBlock(block(env.height, "sedan"), int64(env.height)); err != nil {
				minerErr = err
				return
			}
			if err := env.srv.ProcessBlock(env.height); err != nil {
				minerErr = err
				return
			}
			env.height++
		}
	}()
	defer func() {
		close(stop)
		<-minerDone
		if minerErr != nil {
			t.Fatalf("miner: %v", minerErr)
		}
	}()

	cli, err := Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	light := chain.NewLightStore(0)
	for i := 0; i < 40; i++ {
		sub, err := cli.SubscribeCtx(context.Background(), sedanQuery(), SubscribeConfig{Acc: env.acc, Light: light})
		if err != nil {
			t.Fatal(err)
		}
		var got [][2]int
		for len(got) < 2 {
			var d Delivery
			select {
			case next, ok := <-sub.C:
				if !ok {
					t.Fatalf("subscription %d ended after %v: %v (evictions %d)", sub.ID, got, sub.Err(), env.srv.Evictions())
				}
				d = next
			case <-time.After(10 * time.Second):
				t.Fatalf("subscription %d: no delivery after %v", sub.ID, got)
			}
			if d.Err != nil {
				t.Fatalf("subscription %d: %v", sub.ID, d.Err)
			}
			got = append(got, [2]int{d.Pub.From, d.Pub.To})
		}
		resume := make(chan struct{})
		select {
		case hold <- resume:
		case <-minerDone:
			t.Fatalf("miner stopped: %v", minerErr)
		}
		if err := sub.Close(); err != nil {
			t.Fatal(err)
		}
		for d := range sub.C {
			if d.Err != nil {
				t.Fatalf("subscription %d: %v", sub.ID, d.Err)
			}
			got = append(got, [2]int{d.Pub.From, d.Pub.To})
		}
		mu.Lock()
		want := logged[sub.ID]
		mu.Unlock()
		close(resume)
		if !slices.Equal(got, want) {
			t.Fatalf("subscription %d delivered %v, the SP pushed %v", sub.ID, got, want)
		}
	}
}
