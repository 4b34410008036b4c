// Command vchain-subscribe is a light-node streaming client for
// vchain-sp: it registers a continuous Boolean range query over TCP
// and prints every pushed publication after verifying it locally —
// header auto-sync, span continuity, and the full VO check run before
// anything is displayed.
//
// Usage:
//
//	vchain-sp -listen 127.0.0.1:7060 -mine-interval 2s &
//	vchain-subscribe -sp 127.0.0.1:7060 -keywords "eth-kw0001" -count 5
//
// The keyword list forms one disjunctive clause (kw1 ∨ kw2 ∨ …);
// -lo/-hi add a numeric range. Exit code 0 means every received
// publication verified; a tampering SP makes the stream error and the
// command exit non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/service"
)

func main() {
	var (
		spAddr   = flag.String("sp", "127.0.0.1:7060", "SP address")
		keywords = flag.String("keywords", "", "comma-separated OR-clause of keywords")
		lo       = flag.Int64("lo", -1, "numeric range low bound (-1 = none)")
		hi       = flag.Int64("hi", -1, "numeric range high bound")
		width    = flag.Int("width", 8, "numeric bit width (must match the SP)")
		preset   = flag.String("preset", "toy", "pairing preset (must match the SP)")
		count    = flag.Int("count", 0, "exit after this many publications (0 = run until interrupt)")
	)
	flag.Parse()

	pr, err := pairing.Lookup(*preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vchain-subscribe:", err)
		os.Exit(2)
	}
	q := 4096
	acc := accumulator.KeyGenCon2Deterministic(pr, q, accumulator.HashEncoder{Q: q}, []byte("vchain-demo"))

	query := core.Query{Width: *width}
	if *keywords != "" {
		query.Bool = core.CNF{core.KeywordClause(strings.Split(*keywords, ",")...)}
	}
	if *lo >= 0 {
		query.Range = &core.RangeCond{Lo: []int64{*lo}, Hi: []int64{*hi}}
	}
	if _, err := query.CNF(); err != nil {
		fatal(err)
	}

	cli, err := service.Dial(*spAddr)
	if err != nil {
		fatal(err)
	}
	defer cli.Close()

	light := chain.NewLightStore(0)
	sub, err := cli.SubscribeCtx(context.Background(), query, service.SubscribeConfig{Acc: acc, Light: light})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("subscribed (id %d); streaming verified publications...\n", sub.ID)

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)

	received, results := 0, 0
	for {
		select {
		case d, ok := <-sub.C:
			if !ok {
				if err := sub.Err(); err != nil {
					fatal(fmt.Errorf("stream ended abnormally after %d publications: %w", received, err))
				}
				fmt.Printf("stream ended: %d publications, %d verified results\n", received, results)
				return
			}
			if d.Err != nil {
				fatal(fmt.Errorf("VERIFICATION FAILED — the SP is cheating or misconfigured: %w", d.Err))
			}
			received++
			results += len(d.Objects)
			fmt.Printf("publication [%d,%d]: %d matching objects (verified; %d headers synced)\n",
				d.Pub.From, d.Pub.To, len(d.Objects), light.Height())
			for _, o := range d.Objects {
				fmt.Printf("  %v\n", o)
			}
			if *count > 0 && received >= *count {
				if err := sub.Close(); err != nil {
					fatal(err)
				}
				// Drain the final flush (lazy mode) before exiting.
				for d := range sub.C {
					if d.Err != nil {
						fatal(fmt.Errorf("VERIFICATION FAILED on final span: %w", d.Err))
					}
					results += len(d.Objects)
					fmt.Printf("final span [%d,%d]: %d matching objects (verified)\n",
						d.Pub.From, d.Pub.To, len(d.Objects))
				}
				fmt.Printf("done: %d publications, %d verified results\n", received, results)
				return
			}
		case <-interrupt:
			sub.Close()
			fmt.Printf("interrupted: %d publications, %d verified results\n", received, results)
			return
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vchain-subscribe:", err)
	os.Exit(1)
}
