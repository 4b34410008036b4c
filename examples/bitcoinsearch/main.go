// Bitcoin-style transaction search (Example 3.1 of the vChain paper).
//
// Each object is a coin-transfer transaction ⟨timestamp, amount,
// {addresses}⟩. A user asks for all transactions in a window with
// amount ≥ 10 that involve a specific sender AND a specific receiver —
// a conjunctive Boolean range query — and verifies the answer against
// the untrusted SP, including an adversarial demonstration where the
// SP drops a result and is caught.
//
// Run with: go run ./examples/bitcoinsearch
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	vchain "github.com/vchain-go/vchain"
)

func main() {
	sys, err := vchain.NewSystem(vchain.Config{
		Preset:   "toy",
		BitWidth: 10, // amounts in [0, 1023]
		Capacity: 2048,
		Seed:     []byte("bitcoinsearch"),
	})
	if err != nil {
		log.Fatal(err)
	}
	node := sys.NewNode(1)

	// Synthesize a small transaction history. Address "send:1FFYc" pays
	// "recv:2DAAf" occasionally; background traffic fills the blocks.
	rng := rand.New(rand.NewSource(7))
	id := uint64(1)
	interesting := 0
	for blk := 0; blk < 12; blk++ {
		var txs []vchain.Object
		for i := 0; i < 4; i++ {
			amount := int64(rng.Intn(1000))
			from := fmt.Sprintf("send:%04x", rng.Intn(64))
			to := fmt.Sprintf("recv:%04x", rng.Intn(64))
			if blk%4 == 1 && i == 0 {
				from, to = "send:1FFYc", "recv:2DAAf"
				amount = int64(10 + rng.Intn(500)) // always ≥ 10
				interesting++
			}
			txs = append(txs, vchain.Object{
				ID: vchain.ObjectID(id), TS: int64(blk), V: []int64{amount}, W: []string{from, to},
			})
			id++
		}
		if _, _, err := node.Mine(txs, int64(blk)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("chain: %d blocks, %d planted matches\n", node.Height(), interesting)

	client := sys.NewLightClient()
	if err := client.SyncHeaders(node.Headers()); err != nil {
		log.Fatal(err)
	}

	// “amount ≥ 10 ∧ send:1FFYc ∧ recv:2DAAf” over the whole window.
	q := vchain.Query{
		StartBlock: 0,
		EndBlock:   node.Height() - 1,
		Range:      &vchain.RangeCond{Lo: []int64{10}, Hi: []int64{1023}},
		Bool:       vchain.And(vchain.Or("send:1FFYc"), vchain.Or("recv:2DAAf")),
		Width:      10,
	}
	parts, err := node.TimeWindow(q, false)
	if err != nil {
		log.Fatal(err)
	}
	results, err := client.Verify(q, parts)
	if err != nil {
		log.Fatalf("verification failed: %v", err)
	}
	fmt.Printf("verified %d matching transactions (VO %d bytes):\n", len(results), client.VOSize(parts[0].VO))
	for _, tx := range results {
		fmt.Printf("  block %d: amount=%d %v\n", tx.TS, tx.V[0], tx.W)
	}

	// Adversarial SP: silently truncate the VO to hide recent matches.
	fmt.Println("\nsimulating a cheating SP that omits the latest blocks...")
	forged, _ := node.TimeWindow(q, false)
	forged[0].VO.Blocks = forged[0].VO.Blocks[1:] // drop the newest block's proof
	if _, err := client.Verify(q, forged); err != nil {
		fmt.Printf("caught: %v\n", err)
		if errors.Is(err, vchain.ErrCompleteness) {
			fmt.Println("(flagged as a completeness violation, as expected)")
		}
	} else {
		log.Fatal("BUG: the tampered VO was accepted")
	}
}
