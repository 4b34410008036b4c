// Command vchain-sp runs a vChain service provider: it mines a
// synthetic workload into an ADS-carrying chain and serves verifiable
// time-window queries and streaming subscriptions over TCP. Pair it
// with vchain-query (one-shot) and vchain-subscribe (streaming).
//
// Usage:
//
//	vchain-sp -listen 127.0.0.1:7060 -dataset eth -blocks 32
//	vchain-sp -listen 127.0.0.1:7060 -mine-interval 2s -lazy-threshold 64
//	vchain-sp -listen 127.0.0.1:7060 -store ./sp-data -blocks 32
//	vchain-sp -http 127.0.0.1:7080 -tenants tenants.txt -rate 50
//
// With -http the SP additionally serves the HTTP/JSON gateway:
// API-key tenants (provisioned via -tenants, rate-limited by -rate /
// -global-rate, load-shed by -inflight) run verifiable queries over
// plain JSON, and Prometheus-compatible scrapers read every proof,
// shard, and traffic counter on /metrics. Use -metrics for a
// scrape-only listener on a separate port.
//
// With -mine-interval the SP keeps mining (cycling the dataset) after
// startup, fanning each new block's publications out to connected
// subscribers — the paper's §7 scenario end to end.
//
// With -store the chain and its ADS bodies persist in crash-safe
// block logs, one subdirectory per shard (shard-000, …): every
// mined block is fsynced at commit time, and restarting with the same
// -store resumes from the last fully committed block instead of
// re-mining (a torn tail left by a crash is truncated automatically,
// each shard recovering independently).
//
// With -shards N the SP spreads the chain by height range across N
// shards: each owns its own block store subdirectory, and a time-window
// query still answers one VO, byte for byte the one-shard answer,
// proved on the node's one -workers pool. One shard is the default.
//
// The SP runs on the public vchain API with a deterministic System
// (seed "vchain-demo", -preset, the dataset's width) that vchain-query
// and vchain-subscribe rebuild from their flags: chain metadata, here.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"github.com/vchain-go/vchain"
	"github.com/vchain-go/vchain/internal/workload"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7060", "address to serve on")
		dataset  = flag.String("dataset", "eth", "workload: 4sq | wx | eth")
		blocks   = flag.Int("blocks", 16, "blocks to mine at startup")
		objs     = flag.Int("objects", 4, "objects per block")
		preset   = flag.String("preset", "toy", "pairing preset")
		seed     = flag.Int64("seed", 42, "workload seed")
		workers  = flag.Int("workers", 4, "proof-computation workers: goroutines proving each query's or block's proofs, at most GOMAXPROCS, at any shard count")
		interval = flag.Duration("mine-interval", 0, "keep mining one block per interval after startup (0 = off)")
		subLT    = flag.Int("lazy-threshold", 0, "lazy subscription authentication (§7.2): blocks a subscription's mismatch span may stay pending (0 = publish every block)")
		store    = flag.String("store", "", "block store directory: blocks and ADSs persist there and are recovered on restart (empty = in-memory)")
		adsCache = flag.Int("ads-cache", 0, "decoded-ADS cache budget in blocks for durable stores, split across shards: older ADSs stay on disk and page in on demand (0 = unbounded)")
		shards   = flag.Int("shards", 1, "shard the SP by height range across this many shards (answers stay one VO, the same bytes at every count)")

		supervise = flag.Duration("supervise", time.Second, "shard supervisor scan interval: restart quarantined shards from their logs (0 = off)")

		httpAddr    = flag.String("http", "", "HTTP/JSON gateway address: /v1 query API plus /metrics (empty = off)")
		tenantsFile = flag.String("tenants", "", "tenant provisioning file, name:key[:rate[:burst]] per line (empty = open gateway)")
		rate        = flag.Float64("rate", 0, "default per-tenant gateway rate in requests/second (0 = unlimited)")
		burst       = flag.Int("burst", 0, "default per-tenant gateway burst (0 = derived from the rate)")
		globalRate  = flag.Float64("global-rate", 0, "gateway-wide rate cap in requests/second (0 = unlimited)")
		inflight    = flag.Int("inflight", 0, "gateway max concurrently processed requests (0 = default, <0 uncapped)")
		metricsAddr = flag.String("metrics", "", "standalone scrape-only listener serving /metrics and /healthz (empty = off)")
	)
	flag.Parse()

	ds, err := workload.Generate(workload.Config{
		Kind: workload.Kind(*dataset), Blocks: *blocks, ObjectsPerBlock: *objs, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	sys, err := vchain.NewSystem(vchain.Config{
		Preset:         *preset,
		BitWidth:       ds.Width,
		SPWorkers:      *workers,
		ADSCacheBlocks: *adsCache,
		Seed:           []byte("vchain-demo"),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vchain-sp:", err)
		os.Exit(2)
	}
	var node *vchain.Node
	if *store != "" {
		// Durable SP: reopen every shard's block log (each
		// recovering its own torn tail) and resume from the last height
		// all shards agree on instead of re-mining.
		if node, err = sys.OpenNode(*store, *shards); err != nil {
			fatal(err)
		}
		rep := node.Recovery()
		for _, sr := range rep.Shards {
			switch {
			case sr.Log.Truncated || sr.Dropped > 0:
				fmt.Printf("store %s/%s: recovered %d records (torn tail: %v, %d stranded records dropped)\n",
					*store, sr.Dir, sr.Log.Records, sr.Log.Truncated, sr.Dropped)
			case sr.Log.Records > 0:
				fmt.Printf("store %s/%s: reopened with %d records\n", *store, sr.Dir, sr.Log.Records)
			}
		}
		if rep.Blocks > 0 {
			fmt.Printf("store %s: resumed at height %d across %d shards\n", *store, rep.Blocks, node.Shards())
		}
	} else {
		node = sys.NewNode(*shards)
	}
	defer node.Close()
	mine := func() error {
		h := node.Height()
		_, _, err := node.Mine(ds.Blocks[h%len(ds.Blocks)], int64(h))
		return err
	}
	if h := node.Height(); h < *blocks {
		fmt.Printf("mining %d blocks of %s (%d objects each)...\n", *blocks-h, *dataset, *objs)
	}
	for node.Height() < *blocks {
		if err := mine(); err != nil {
			fatal(err)
		}
	}
	sp, err := node.Serve(*listen, vchain.SubscribeOptions{LazyThreshold: *subLT})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serving on %s  (dataset=%s blocks=%d preset=%s seed=%d width=%d shards=%d)\n",
		sp.Addr(), *dataset, *blocks, *preset, *seed, ds.Width, node.Shards())
	fmt.Println("query with:     vchain-query -sp", sp.Addr(), "-preset", *preset, "-width", ds.Width)
	fmt.Println("subscribe with: vchain-subscribe -sp", sp.Addr(), "-preset", *preset, "-width", ds.Width)

	// HTTP front door: the JSON query API with per-tenant admission
	// control, and/or a standalone scrape-only metrics listener. Both
	// draw from one gateway (one metric registry) layered over the same
	// node the TCP endpoint serves.
	if *httpAddr != "" || *metricsAddr != "" {
		var tenants []vchain.GatewayTenant
		if *tenantsFile != "" {
			if tenants, err = vchain.LoadGatewayTenants(*tenantsFile); err != nil {
				fatal(err)
			}
		}
		gw, err := node.ServeGateway(*httpAddr, vchain.GatewayConfig{
			Tenants:     tenants,
			TenantRate:  *rate,
			TenantBurst: *burst,
			GlobalRate:  *globalRate,
			MaxInflight: *inflight,
			Logger:      slog.New(slog.NewTextHandler(os.Stdout, nil)),
		})
		if err != nil {
			fatal(err)
		}
		defer gw.Close()
		if *httpAddr != "" {
			fmt.Printf("gateway on http://%s  (tenants=%d rate=%g inflight=%d)\n",
				gw.Addr(), len(tenants), *rate, *inflight)
			fmt.Printf("scrape with:    curl http://%s/metrics\n", gw.Addr())
		}
		if *metricsAddr != "" {
			mln, err := net.Listen("tcp", *metricsAddr)
			if err != nil {
				fatal(err)
			}
			msrv := &http.Server{Handler: gw.MetricsHandler(), ReadHeaderTimeout: 10 * time.Second}
			go msrv.Serve(mln)
			defer msrv.Close()
			fmt.Printf("metrics on http://%s/metrics\n", mln.Addr())
		}
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)

	// Shard supervision: quarantined shards (breaker tripped) are
	// restarted from their durable logs once their cooldown passes.
	if *supervise > 0 {
		stop := node.Supervise(*supervise)
		defer stop()
		fmt.Printf("supervising %d shards every %v\n", node.Shards(), *supervise)
	}

	if *interval > 0 {
		// Continuous mining: cycle the dataset's blocks so subscribers
		// keep receiving publications. Mine fans each block's due
		// publications out to every connected subscriber.
		ticker := time.NewTicker(*interval)
		defer ticker.Stop()
		fmt.Printf("mining one block every %v (ctrl-C to stop)\n", *interval)
	loop:
		for {
			select {
			case <-ticker.C:
				if err := mine(); err != nil {
					fmt.Fprintln(os.Stderr, "vchain-sp: mining:", err)
					break loop
				}
			case <-ch:
				break loop
			}
		}
	} else {
		<-ch
	}
	sp.Close()

	st := node.ProofStats()
	fmt.Printf("proof engine: %d proofs computed, %d cache hits / %d misses (%.1f%% hit rate), %d agg groups, %d errors\n",
		st.Proofs, st.CacheHits, st.CacheMisses, st.HitRate()*100, st.AggGroups, st.Errors)
	var restarts, trips uint64
	for _, ss := range node.ShardStats() {
		fmt.Printf("  shard %d [%s]: %d failures, %d restarts, %d breaker trips\n",
			ss.Shard, ss.Health, ss.Failures, ss.Restarts, ss.BreakerTrips)
		restarts += ss.Restarts
		trips += ss.BreakerTrips
	}
	fmt.Printf("fault tolerance: %d shard restarts, %d breaker trips\n", restarts, trips)
	if ev := sp.Evictions(); ev > 0 {
		fmt.Printf("slow consumers evicted: %d\n", ev)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vchain-sp:", err)
	os.Exit(1)
}
