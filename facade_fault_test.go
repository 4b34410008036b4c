package vchain

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"
)

// TestFacadeDegradedReads exercises the public fault-tolerance surface
// end to end at every shard count: quarantine a shard, get a verified
// partial answer (local and over the wire) with exactly the shard's
// heights as gaps, restart the shard, and get the full answer again. At
// one shard the whole window is the gap — degraded, not broken.
func TestFacadeDegradedReads(t *testing.T) {
	sys := testSystem(t, "acc2", IndexBoth)
	forEachShardCount(t, func(t *testing.T, shards int) {
		node := sys.NewNode(shards)
		defer node.Close()
		const blocks = 12
		mine(t, node, 0, blocks)
		client := syncedClient(t, sys, node)
		q := Query{StartBlock: 0, EndBlock: blocks - 1, Bool: And(Or("sedan")), Width: 4}

		// Fence the shard owning the newest height (default band 8: at
		// N > 1 that is shard 1, owning 8-11).
		target := node.node.Owner(blocks - 1)
		healthy := 0
		for h := 0; h < blocks; h++ {
			if node.node.Owner(h) != target {
				healthy++
			}
		}
		if err := node.Quarantine(target, errors.New("test: fenced")); err != nil {
			t.Fatal(err)
		}
		if got := node.Health(target); got != ShardQuarantined {
			t.Fatalf("health = %v, want quarantined", got)
		}
		// Strict queries touching the shard fail typed...
		if _, err := node.TimeWindow(q, false); !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("strict query err = %v, want ErrShardUnavailable", err)
		}
		// ...degraded ones return the provable parts plus the shard's
		// heights as gaps, and the pair verifies.
		parts, gaps, err := node.TimeWindowDegraded(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(gaps) == 0 || gaps[0].End != blocks-1 {
			t.Fatalf("gaps = %v, want the fenced shard's heights ending at %d", gaps, blocks-1)
		}
		for _, g := range gaps {
			for h := g.Start; h <= g.End; h++ {
				if node.node.Owner(h) != target {
					t.Fatalf("gap %v covers height %d of healthy shard %d", g, h, node.node.Owner(h))
				}
			}
		}
		res, err := client.VerifyDegraded(q, parts, gaps)
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("verify err = %v, want ErrDegraded", err)
		}
		if res.Covered() != healthy || len(res.Objects) != healthy {
			t.Fatalf("covered %d blocks, %d objects; want %d and %d", res.Covered(), len(res.Objects), healthy, healthy)
		}

		// The same degraded answer flows over the wire.
		sp, err := node.Serve("127.0.0.1:0", SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sp.Close()
		cli, err := client.DialSP(sp.Addr(), SPOptions{RetryAttempts: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		// A strict remote query fails typed too, and is not retried.
		if _, err := cli.Query(context.Background(), q, false); !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("remote strict query err = %v, want ErrShardUnavailable", err)
		}
		if got := cli.Retries(); got != 0 {
			t.Fatalf("remote strict query retried %d times", got)
		}
		wres, err := cli.QueryDegraded(context.Background(), q, false)
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("remote degraded err = %v, want ErrDegraded", err)
		}
		if wres.Covered() != healthy || len(wres.Gaps) != len(gaps) {
			t.Fatalf("remote degraded result: covered %d, gaps %v", wres.Covered(), wres.Gaps)
		}

		// Restart heals the shard; full strict answers resume.
		if err := node.RestartShard(target); err != nil {
			t.Fatal(err)
		}
		if got := node.Health(target); got != ShardHealthy {
			t.Fatalf("post-restart health = %v, want healthy", got)
		}
		results, err := cli.Query(context.Background(), q, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != blocks {
			t.Fatalf("post-recovery results %d, want %d", len(results), blocks)
		}
		if ss := node.ShardStats()[target]; ss.Restarts != 1 || ss.BreakerTrips != 1 {
			t.Fatalf("shard stats = %+v, want 1 restart and 1 trip", ss)
		}
	})
}

// TestDegradedQueryCannotQuarantine is the regression test for the
// breaker DoS: a degraded-read query whose clause exceeds the acc1 key
// capacity fails inside the proof walk on every shard. That is the
// query's fault, not the shards' — it must fail exactly like the strict
// query, over gob and over HTTP, and leave every breaker closed. (The
// planner used to turn any span error into a gap plus breaker pressure,
// so three such requests quarantined every shard and strict queries
// then failed with ErrShardUnavailable.)
func TestDegradedQueryCannotQuarantine(t *testing.T) {
	sys, err := NewSystem(Config{
		Preset: "toy", Accumulator: "acc1", Index: IndexIntra, BitWidth: 4,
		Capacity: 256, Difficulty: 1, Seed: []byte("breaker-dos"),
	})
	if err != nil {
		t.Fatal(err)
	}
	node := sys.NewNode(2)
	defer node.Close()
	const blocks = 12 // default band 8: both shards are in the window
	mine(t, node, 0, blocks)

	keywords := make([]string, 400) // one clause, far over the 256-element key
	for i := range keywords {
		keywords[i] = fmt.Sprintf("nobody-sells-%03d", i)
	}
	hostile := Query{StartBlock: 0, EndBlock: blocks - 1, Bool: And(Or(keywords...)), Width: 4}
	if _, err := node.TimeWindow(hostile, false); err == nil {
		t.Fatal("over-capacity clause answered; the scenario needs it to fail")
	}

	sp, err := node.Serve("127.0.0.1:0", SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	client := sys.NewLightClient()
	cli, err := client.DialSP(sp.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	gw, err := node.ServeGateway("127.0.0.1:0", GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	body, _ := json.Marshal(map[string]any{
		"startBlock": 0, "endBlock": blocks - 1,
		"keywords": [][]string{keywords}, "allowDegraded": true,
	})

	for i := 0; i < 3; i++ { // the default breaker threshold
		if res, err := cli.QueryDegraded(context.Background(), hostile, false); err == nil || errors.Is(err, ErrDegraded) {
			t.Fatalf("gob attempt %d: unprovable query came back as gaps %+v (err %v), want a query error", i, res, err)
		}
		resp, err := http.Post("http://"+gw.Addr()+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("HTTP attempt %d: unprovable degraded query answered 200", i)
		}
	}

	for _, ss := range node.ShardStats() {
		if ss.Health != ShardHealthy || ss.Failures != 0 || ss.BreakerTrips != 0 {
			t.Fatalf("a client's query fed shard %d's breaker: %+v", ss.Shard, ss)
		}
	}
	// Honest strict queries still get full answers.
	q := Query{StartBlock: 0, EndBlock: blocks - 1, Bool: And(Or("sedan")), Width: 4}
	results, err := cli.Query(context.Background(), q, false)
	if err != nil {
		t.Fatalf("strict query after the hostile ones: %v", err)
	}
	if len(results) != blocks {
		t.Fatalf("results %d, want %d", len(results), blocks)
	}
}
