package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/service"
	"github.com/vchain-go/vchain/internal/subscribe"
	"github.com/vchain-go/vchain/internal/workload"
)

// SubscriptionStreamFig measures the full remote subscription path —
// the paper's §7 workload pushed over the real TCP service layer
// rather than in-process: register queries from a light client, mine
// the dataset block by block with fan-out, and locally verify every
// pushed publication. Reported per scheme (eager/lazy × with and
// without clause sharing): publications per second of wall-clock
// (mining + fan-out + wire + client verification, overlapped as they
// are in deployment) and per-publication VO bytes.
func SubscriptionStreamFig(kind workload.Kind, o Options) (*Table, error) {
	o = o.withDefaults()
	pr := pairing.ByName(o.Preset)
	ds, err := workload.Generate(workload.Config{
		Kind: kind, Blocks: o.Blocks, ObjectsPerBlock: o.ObjectsPerBlock, Seed: o.Seed,
	})
	if err != nil {
		return nil, err
	}
	// Subscriptions share conditions (clause sharing's premise).
	pool := o.Queries / 2
	if pool < 2 {
		pool = 2
	}
	queries := ds.RandomQueries(o.Queries*3, workload.QueryConfig{
		Seed: o.Seed + 7, RangeDims: rangeDims(kind), SharedClausePool: pool,
	})

	t := &Table{
		Title: fmt.Sprintf("Remote Subscription Streaming (%s)", kind),
		Note: fmt.Sprintf("%d subscriptions over TCP, %d blocks mined live, acc2, both indexes; "+
			"every publication verified client-side before counting", len(queries), o.Blocks),
		Columns: []string{"Scheme", "Pubs", "Pubs/s", "VO(KB)/pub", "Results", "Wall(ms)"},
	}
	schemes := []struct {
		name string
		opts subscribe.Options
	}{
		{"eager-nip", subscribe.Options{}},
		{"eager-ip", subscribe.Options{UseIPTree: true}},
		{"lazy-nip", subscribe.Options{Lazy: true}},
		{"lazy-ip", subscribe.Options{Lazy: true, UseIPTree: true}},
	}
	for _, sch := range schemes {
		row, err := runStream(pr, ds, o, sch.opts, queries)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", sch.name, err)
		}
		perPub := 0.0
		if row.pubs > 0 {
			perPub = float64(row.voBytes) / float64(row.pubs) / 1024.0
		}
		t.Rows = append(t.Rows, []string{
			sch.name,
			fmt.Sprintf("%d", row.pubs),
			fmt.Sprintf("%.1f", float64(row.pubs)/row.wall.Seconds()),
			fmt.Sprintf("%.2f", perPub),
			fmt.Sprintf("%d", row.results),
			ms(row.wall),
		})
	}
	return t, nil
}

type streamRun struct {
	pubs    int
	voBytes int
	results int
	wall    time.Duration
}

// runStream serves a fresh chain, subscribes every query over TCP,
// then mines the dataset with per-block fan-out while a drain
// goroutine per subscription verifies and counts deliveries.
func runStream(pr *pairing.Params, ds *workload.Dataset, o Options,
	opts subscribe.Options, queries []core.Query) (*streamRun, error) {

	acc := newAccumulator(pr, ds, o, "acc2")
	node := core.NewFullNode(0, &core.Builder{
		Acc: acc, Mode: core.ModeBoth, SkipSize: o.SkipListSize, Width: ds.Width,
	})
	srv := service.NewServer(node, service.ServerConfig{Subscriptions: opts})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cli, err := service.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer cli.Close()

	light := chain.NewLightStore(0)
	out := &streamRun{}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	subs := make([]*service.Subscription, len(queries))
	for i, q := range queries {
		sub, err := cli.SubscribeCtx(context.Background(), q, service.SubscribeConfig{Acc: acc, Light: light})
		if err != nil {
			return nil, err
		}
		subs[i] = sub
		wg.Add(1)
		go func(sub *service.Subscription) {
			defer wg.Done()
			for d := range sub.C {
				mu.Lock()
				if d.Err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("publication rejected: %w", d.Err)
					}
				} else {
					out.pubs++
					out.voBytes += d.Pub.VO.SizeBytes(acc)
					out.results += len(d.Objects)
				}
				mu.Unlock()
			}
		}(sub)
	}

	start := time.Now()
	for h, blk := range ds.Blocks {
		if _, err := node.MineBlock(blk, int64(h)); err != nil {
			return nil, err
		}
		if err := srv.ProcessBlock(h); err != nil {
			return nil, err
		}
	}
	// Unsubscribe to flush pending lazy spans, then wait for every
	// stream to drain and close.
	for _, sub := range subs {
		if err := sub.Close(); err != nil {
			return nil, err
		}
	}
	wg.Wait()
	out.wall = time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
