package bench

import (
	"fmt"
	"time"

	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/proofs"
	"github.com/vchain-go/vchain/internal/subscribe"
	"github.com/vchain-go/vchain/internal/workload"
)

// subscriptionRun replays a mined chain through a subscription engine
// and measures accumulated SP time, accumulated user (verification)
// time, and accumulated VO size across all publications, plus the
// proof-engine work (proofs computed, cache hit rate).
type subscriptionRun struct {
	spTime   time.Duration
	userTime time.Duration
	voBytes  int
	results  int
	pubs     int
	proofs   uint64
	hitRate  float64
}

func runSubscription(s *setup, queries []core.Query, opts subscribe.Options, period int) (*subscriptionRun, error) {
	// A fresh proof engine per run keeps sweep rows independent, as in
	// runWindowQueries.
	opts.Proofs = proofs.New(s.acc, proofs.Options{})
	eng := subscribe.NewEngine(s.acc, opts)
	ids := make([]int, len(queries))
	for i, q := range queries {
		id, err := eng.Register(q)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	byID := make(map[int]core.Query, len(queries))
	for i, id := range ids {
		byID[id] = queries[i]
	}

	out := &subscriptionRun{}
	ver := &core.Verifier{Acc: s.acc, Light: s.light}
	var pubs []subscribe.Publication
	for h := 0; h < period && h < s.node.Height(); h++ {
		ads, err := s.node.ADSAt(h)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		p, err := eng.ProcessBlock(ads, s.node)
		out.spTime += time.Since(t0)
		if err != nil {
			return nil, err
		}
		pubs = append(pubs, p...)
	}
	// Deregister to flush pending lazy spans.
	t0 := time.Now()
	for _, id := range ids {
		if p := eng.Deregister(id); p != nil {
			pubs = append(pubs, *p)
		}
	}
	out.spTime += time.Since(t0)
	out.proofs, out.hitRate = statsDelta(proofs.Stats{}, opts.Proofs.Stats())

	for i := range pubs {
		pub := &pubs[i]
		out.voBytes += pub.VO.SizeBytes(s.acc)
		t0 := time.Now()
		objs, err := subscribe.VerifyPublication(ver, byID[pub.QueryID], pub)
		out.userTime += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("bench: publication [%d,%d] rejected: %w", pub.From, pub.To, err)
		}
		out.results += len(objs)
	}
	out.pubs = len(pubs)
	return out, nil
}

// SubscriptionIPTreeFig reproduces Fig. 12: accumulated SP CPU time as
// the number of registered queries grows, for real-time/lazy × with and
// without clause sharing, the IP-tree's BCIF grouping of §7.1 (acc2
// only, as in the paper).
func SubscriptionIPTreeFig(kind workload.Kind, title string, o Options) (*Table, error) {
	o = o.withDefaults()
	pr := pairing.ByName(o.Preset)
	ds, err := workload.Generate(workload.Config{Kind: kind, Blocks: o.Blocks, ObjectsPerBlock: o.ObjectsPerBlock, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	s, err := buildSetup(pr, ds, o, "acc2", core.ModeBoth, o.SkipListSize)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("%s: Subscription Queries with IP-Tree (%s)", title, kind),
		Note: fmt.Sprintf("period=%d blocks, acc2, both indexes; accumulated over all queries",
			o.Blocks),
		Columns: []string{"Scheme", "Queries", "SP CPU(ms)", "Pubs", "Proofs", "Hit%"},
	}
	counts := querySweep(o.Queries)
	schemes := []struct {
		name string
		opts subscribe.Options
	}{
		{"real-nip", subscribe.Options{}},
		{"real-ip", subscribe.Options{UseIPTree: true}},
		{"lazy-nip", subscribe.Options{LazyThreshold: subscribe.DefaultLazyThreshold}},
		{"lazy-ip", subscribe.Options{LazyThreshold: subscribe.DefaultLazyThreshold, UseIPTree: true}},
	}
	for _, sch := range schemes {
		for _, n := range counts {
			// Subscriptions share conditions (clause sharing's premise):
			// draw Boolean clauses from a pool of ~n/3 distinct ones.
			pool := n / 3
			if pool < 2 {
				pool = 2
			}
			queries := ds.RandomQueries(n, workload.QueryConfig{
				Seed: o.Seed + 3, RangeDims: rangeDims(kind), SharedClausePool: pool,
			})
			run, err := runSubscription(s, queries, sch.opts, o.Blocks)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				sch.name, fmt.Sprintf("%d", n),
				ms(run.spTime), fmt.Sprintf("%d", run.pubs),
				fmt.Sprintf("%d", run.proofs), pct(run.hitRate),
			})
		}
	}
	return t, nil
}

// SubscriptionPeriodFig reproduces Figs. 13–15: accumulated SP CPU,
// user CPU, and VO size as the subscription period grows, comparing
// realtime-acc1, realtime-acc2, and lazy-acc2 (acc1 cannot aggregate,
// so it has no lazy variant — §9.3).
func SubscriptionPeriodFig(kind workload.Kind, title string, o Options) (*Table, error) {
	o = o.withDefaults()
	pr := pairing.ByName(o.Preset)
	ds, err := workload.Generate(workload.Config{Kind: kind, Blocks: o.Blocks, ObjectsPerBlock: o.ObjectsPerBlock, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	queries := ds.RandomQueries(o.Queries, workload.QueryConfig{Seed: o.Seed + 5, RangeDims: rangeDims(kind)})
	t := &Table{
		Title: fmt.Sprintf("%s: Subscription Query Performance (%s)", title, kind),
		Note: fmt.Sprintf("%d queries, both indexes; accumulated over the period",
			o.Queries),
		Columns: []string{"Scheme", "Period(blocks)", "SP CPU(ms)", "User CPU(ms)", "VO(KB)", "Results"},
	}
	type scheme struct {
		name      string
		accName   string
		threshold int
	}
	schemes := []scheme{
		{"realtime-acc1", "acc1", 0},
		{"realtime-acc2", "acc2", 0},
		{"lazy-acc2", "acc2", subscribe.DefaultLazyThreshold},
	}
	periods := windowSweep(o.Blocks)
	for _, sch := range schemes {
		s, err := buildSetup(pr, ds, o, sch.accName, core.ModeBoth, o.SkipListSize)
		if err != nil {
			return nil, err
		}
		for _, period := range periods {
			run, err := runSubscription(s, queries, subscribe.Options{LazyThreshold: sch.threshold, UseIPTree: true}, period)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				sch.name, fmt.Sprintf("%d", period),
				ms(run.spTime), ms(run.userTime), kb(run.voBytes),
				fmt.Sprintf("%d", run.results),
			})
		}
	}
	return t, nil
}

// querySweep yields the Fig. 12 x-axis scaled to the configured query
// budget: {q, 2q, 3q, 4q, 5q}.
func querySweep(q int) []int {
	out := make([]int, 0, 5)
	for i := 1; i <= 5; i++ {
		out = append(out, q*i)
	}
	return out
}
