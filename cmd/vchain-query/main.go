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

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/service"
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
		seqVer   = flag.Bool("seq-verify", false, "use the sequential baseline verifier instead of the batched engine")
		workers  = flag.Int("verify-workers", 0, "batched verification workers (0 = all cores)")
		timeout  = flag.Duration("timeout", 0, "per-call deadline, propagated into the SP's proof walk (0 = SP client default)")
		retries  = flag.Int("retries", 1, "total attempts per idempotent call (transport failures re-dial between attempts)")
		backoff  = flag.Duration("retry-backoff", 0, "first retry's backoff ceiling, doubling with jitter (0 = default 50ms)")
		degraded = flag.Bool("degraded", false, "accept a verified partial answer (with machine-readable gaps) when the SP has shards down")
	)
	flag.Parse()

	pr, err := pairing.Lookup(*preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vchain-query:", err)
		os.Exit(2)
	}
	q := 4096
	acc := accumulator.KeyGenCon2Deterministic(pr, q, accumulator.HashEncoder{Q: q}, []byte("vchain-demo"))

	cli, err := service.Dial(*spAddr, service.ClientConfig{
		RPCTimeout: *timeout,
		Retry:      service.RetryPolicy{Attempts: *retries, BaseBackoff: *backoff},
	})
	if err != nil {
		fatal(err)
	}
	defer cli.Close()

	ctx := context.Background()
	light := chain.NewLightStore(0)
	if err := cli.SyncHeaders(ctx, light); err != nil {
		fatal(fmt.Errorf("header sync failed (tampered chain?): %w", err))
	}
	fmt.Printf("synced %d headers (%d bits of light storage)\n", light.Height(), light.SizeBits())

	end := *to
	if end <= 0 {
		end = light.Height() - 1
	}
	query := core.Query{StartBlock: *from, EndBlock: end, Width: *width}
	if *keywords != "" {
		query.Bool = core.CNF{core.KeywordClause(strings.Split(*keywords, ",")...)}
	}
	if *lo >= 0 {
		query.Range = &core.RangeCond{Lo: []int64{*lo}, Hi: []int64{*hi}}
	}
	if _, err := query.CNF(); err != nil {
		fatal(err)
	}

	// A strict answer is one part spanning the window at every shard
	// count. With -degraded the SP may declare gaps for the heights of
	// shards it cannot serve, with one part per run between them; the
	// gap claims are verified to tile the window, and all parts settle
	// in one pairing batch.
	var parts []core.WindowPart
	var gaps []core.Gap
	if *degraded {
		parts, gaps, err = cli.QueryDegraded(ctx, query, *batched)
	} else {
		parts, err = cli.QueryParts(ctx, query, *batched)
	}
	if err != nil {
		fatal(err)
	}
	voBytes := 0
	for _, p := range parts {
		voBytes += p.VO.SizeBytes(acc)
	}
	if len(parts) == 1 {
		fmt.Printf("VO received: %d bytes\n", voBytes)
	} else {
		fmt.Printf("VO received: %d bytes in %d parts\n", voBytes, len(parts))
	}
	if n := cli.Retries(); n > 0 {
		fmt.Printf("transport: %d retries, %d reconnects\n", n, cli.Reconnects())
	}

	ver := &core.Verifier{Acc: acc, Light: light, Sequential: *seqVer, Workers: *workers}
	t0 := time.Now()
	res, err := ver.VerifyDegraded(query, parts, gaps)
	if err != nil && !errors.Is(err, core.ErrDegraded) {
		fatal(fmt.Errorf("VERIFICATION FAILED — the SP is cheating or misconfigured: %w", err))
	}
	mode := "batched"
	if *seqVer {
		mode = "sequential"
	}
	fmt.Printf("verified %d results in %v (%s; soundness + completeness hold):\n",
		len(res.Objects), time.Since(t0).Round(time.Microsecond), mode)
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
