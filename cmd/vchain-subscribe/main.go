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
// publication verified. Exit code 1 means a publication failed
// verification ("VERIFICATION FAILED"), the SP dropped the
// subscription because it could not prove the clause against a block
// ("stream ended: subscription dropped by the SP"), or the connection
// ended the stream ("stream ended abnormally").
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"github.com/vchain-go/vchain"
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

	// The SP's demo System: the same seed and preset rebuild
	// its accumulator public key.
	sys, err := vchain.NewSystem(vchain.Config{Preset: *preset, BitWidth: *width, Seed: []byte("vchain-demo")})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vchain-subscribe:", err)
		os.Exit(2)
	}

	query := vchain.Query{Width: *width}
	if *keywords != "" {
		query.Bool = vchain.And(vchain.Or(strings.Split(*keywords, ",")...))
	}
	if *lo >= 0 {
		query.Range = &vchain.RangeCond{Lo: []int64{*lo}, Hi: []int64{*hi}}
	}
	if _, err := query.CNF(); err != nil {
		fatal(err)
	}

	client := sys.NewLightClient()
	sp, err := client.DialSP(*spAddr)
	if err != nil {
		fatal(err)
	}
	defer sp.Close()

	sub, err := sp.Subscribe(query)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("subscribed (id %d); streaming verified publications...\n", sub.ID)

	// An interrupt or the -count'th publication closes the stream; the
	// loop still drains the final flush (lazy mode) before C closes.
	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	go func() {
		<-interrupt
		sub.Close()
	}()
	received, results := 0, 0
	for d := range sub.C {
		if d.Pub == nil {
			break // the stream's end, not a verdict: sub.Err reports it
		}
		if d.Err != nil {
			fatal(fmt.Errorf("VERIFICATION FAILED — the SP is cheating or misconfigured: %w", d.Err))
		}
		received++
		results += len(d.Objects)
		fmt.Printf("publication [%d,%d]: %d matching objects (verified; %d headers synced)\n",
			d.Pub.From, d.Pub.To, len(d.Objects), client.Height())
		for _, o := range d.Objects {
			fmt.Printf("  %v\n", o)
		}
		if received == *count {
			if err := sub.Close(); err != nil {
				fatal(err)
			}
		}
	}
	if err := sub.Err(); errors.Is(err, vchain.ErrSubscriptionDropped) {
		fatal(fmt.Errorf("stream ended after %d publications: %w", received, err))
	} else if err != nil {
		fatal(fmt.Errorf("stream ended abnormally after %d publications: %w", received, err))
	}
	fmt.Printf("done: %d publications, %d verified results\n", received, results)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vchain-subscribe:", err)
	os.Exit(1)
}
