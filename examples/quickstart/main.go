// Quickstart: the smallest end-to-end vChain flow.
//
// A miner appends blocks carrying the accumulator ADS, a light client
// syncs only the headers, and a time-window Boolean range query is
// answered by the (untrusted) full node with a verification object the
// client checks locally.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	vchain "github.com/vchain-go/vchain"
)

func main() {
	// One System is shared by all roles: it holds the pairing
	// parameters and the accumulator public key. The "toy" preset keeps
	// this demo instant; use "default" for real deployments.
	sys, err := vchain.NewSystem(vchain.Config{
		Preset:   "toy",
		BitWidth: 8,
		Capacity: 1024,
		Seed:     []byte("quickstart"), // deterministic demo key
	})
	if err != nil {
		log.Fatal(err)
	}

	// The full node mines blocks of temporal objects ⟨t, V, W⟩.
	node := sys.NewNode(1)
	for i := 0; i < 4; i++ {
		objs := []vchain.Object{
			{ID: vchain.ObjectID(i*10 + 1), TS: int64(i), V: []int64{int64(20 + i)}, W: []string{"sedan", "benz"}},
			{ID: vchain.ObjectID(i*10 + 2), TS: int64(i), V: []int64{int64(90 + i)}, W: []string{"van", "audi"}},
		}
		if _, _, err := node.Mine(objs, int64(i)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("mined %d blocks\n", node.Height())

	// The light client stores headers only.
	client := sys.NewLightClient()
	if err := client.SyncHeaders(node.Headers()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("light client synced %d headers (%d bits)\n", client.Height(), client.StorageBits())

	// Query: price ∈ [0, 50] AND "sedan" over blocks [0, 3].
	q := vchain.Query{
		StartBlock: 0,
		EndBlock:   3,
		Range:      &vchain.RangeCond{Lo: []int64{0}, Hi: []int64{50}},
		Bool:       vchain.And(vchain.Or("sedan")),
		Width:      8,
	}
	// The answer is a list of window parts tiling [StartBlock, EndBlock]:
	// exactly one at every shard count (degraded reads add gaps).
	parts, err := node.TimeWindow(q)
	if err != nil {
		log.Fatal(err)
	}
	voBytes := 0
	for _, p := range parts {
		voBytes += client.VOSize(p.VO)
	}
	fmt.Printf("VO size: %d bytes\n", voBytes)

	// Verification certifies soundness AND completeness: a nil error
	// means these are exactly the matching objects, untampered.
	results, err := client.Verify(q, parts)
	if err != nil {
		log.Fatalf("verification failed: %v", err)
	}
	fmt.Printf("verified %d results:\n", len(results))
	for _, o := range results {
		fmt.Printf("  %v\n", o)
	}
}
