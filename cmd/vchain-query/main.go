// Command vchain-query is a light-node client for vchain-sp: it syncs
// headers, runs a verifiable time-window query against the untrusted
// SP, and verifies the returned VO locally before printing results.
//
// Usage:
//
//	vchain-query -sp 127.0.0.1:7060 -from 0 -to 15 -keywords "eth-kw0001,eth-kw0002" -lo 5 -hi 60
//
// The keyword list forms one disjunctive clause (kw1 ∨ kw2 ∨ …); -lo/-hi
// give the numeric range. Exit code 0 means the results verified.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/vchain-go/vchain"
)

func main() {
	var (
		spAddr   = flag.String("sp", "127.0.0.1:7060", "SP address")
		from     = flag.Int("from", 0, "window start block")
		to       = flag.Int("to", 0, "window end block (0 = chain tip)")
		keywords = flag.String("keywords", "", "comma-separated OR-clause of keywords")
		lo       = flag.Int64("lo", -1, "numeric range low bound (-1 = none)")
		hi       = flag.Int64("hi", -1, "numeric range high bound")
		width    = flag.Int("width", 8, "numeric bit width (must match the SP)")
		preset   = flag.String("preset", "toy", "pairing preset (must match the SP)")
		batched  = flag.Bool("batched", false, "request online batch verification")
		timeout  = flag.Duration("timeout", 0, "query deadline, propagated into the SP's proof walk (0 = the client's 30s per-call default)")
		retries  = flag.Int("retries", 1, "total attempts per idempotent call (transport failures re-dial between attempts)")
		degraded = flag.Bool("degraded", false, "accept a verified partial answer (with machine-readable gaps) when the SP has shards down")
	)
	flag.Parse()

	// The SP's demo System: the same seed and preset rebuild
	// its accumulator public key.
	sys, err := vchain.NewSystem(vchain.Config{Preset: *preset, BitWidth: *width, Seed: []byte("vchain-demo")})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vchain-query:", err)
		os.Exit(2)
	}
	client := sys.NewLightClient()
	sp, err := client.DialSP(*spAddr, vchain.SPOptions{RetryAttempts: *retries})
	if err != nil {
		fatal(err)
	}
	defer sp.Close()

	if err := sp.SyncHeaders(); err != nil {
		fatal(fmt.Errorf("header sync failed (tampered chain?): %w", err))
	}
	fmt.Printf("synced %d headers (%d bits of light storage)\n", client.Height(), client.StorageBits())

	end := *to
	if end <= 0 {
		end = client.Height() - 1
	}
	query := vchain.Query{StartBlock: *from, EndBlock: end, Width: *width}
	if *keywords != "" {
		query.Bool = vchain.And(vchain.Or(strings.Split(*keywords, ",")...))
	}
	if *lo >= 0 {
		query.Range = &vchain.RangeCond{Lo: []int64{*lo}, Hi: []int64{*hi}}
	}
	if _, err := query.CNF(); err != nil {
		fatal(err)
	}

	// A strict answer is one VO spanning the window. With -degraded
	// the SP may declare gaps for the heights of shards it cannot
	// serve; the client verifies that the gaps and the proved parts
	// tile the window.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	t0 := time.Now()
	var res *vchain.DegradedResult
	if *degraded {
		res, err = sp.QueryDegraded(ctx, query, *batched)
	} else {
		res = &vchain.DegradedResult{}
		res.Objects, err = sp.Query(ctx, query, *batched)
	}
	switch {
	case errors.Is(err, vchain.ErrSoundness) || errors.Is(err, vchain.ErrCompleteness):
		fatal(fmt.Errorf("VERIFICATION FAILED — the SP is cheating or misconfigured: %w", err))
	case err != nil && !errors.Is(err, vchain.ErrDegraded):
		fatal(err)
	}
	if n := sp.Retries(); n > 0 {
		fmt.Printf("transport: %d retries, %d reconnects\n", n, sp.Reconnects())
	}
	fmt.Printf("verified %d results in %v (soundness + completeness hold):\n",
		len(res.Objects), time.Since(t0).Round(time.Microsecond))
	for _, o := range res.Objects {
		fmt.Printf("  %v\n", o)
	}
	if len(res.Gaps) > 0 {
		fmt.Printf("DEGRADED ANSWER: %d of %d window blocks unproven:\n",
			query.EndBlock-query.StartBlock+1-res.Covered(), query.EndBlock-query.StartBlock+1)
		for _, g := range res.Gaps {
			fmt.Printf("  gap: blocks [%d,%d]\n", g.Start, g.End)
		}
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vchain-query:", err)
	os.Exit(1)
}
