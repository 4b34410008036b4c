// Car-rental subscription queries (Example 3.2 of the vChain paper).
//
// A user subscribes to q = ⟨−, [200, 250], "Sedan" ∧ ("Benz" ∨ "BMW")⟩:
// every future rental offer priced 200–250 that is a Benz or BMW sedan
// must be delivered — verifiably. The demo runs two subscribers (one
// real-time, one lazy) against the same feed and shows the lazy one
// receiving aggregated multi-block publications.
//
// Run with: go run ./examples/carrental
package main

import (
	"fmt"
	"log"
	"math/rand"

	vchain "github.com/vchain-go/vchain"
)

func main() {
	sys, err := vchain.NewSystem(vchain.Config{
		Preset:   "toy",
		BitWidth: 9, // prices in [0, 511]
		Capacity: 2048,
		Seed:     []byte("carrental"),
	})
	if err != nil {
		log.Fatal(err)
	}

	// Two independent full nodes simulate two SPs with different
	// publication policies over identical chains.
	realtime := sys.NewNode(1)
	lazy := sys.NewNode(1)

	q := vchain.Query{
		Range: &vchain.RangeCond{Lo: []int64{200}, Hi: []int64{250}},
		Bool:  vchain.And(vchain.Or("sedan"), vchain.Or("benz", "bmw")),
		Width: 9,
	}
	if _, err := realtime.Subscribe(q, vchain.SubscribeOptions{}); err != nil {
		log.Fatal(err)
	}
	lazyID, err := lazy.Subscribe(q, vchain.SubscribeOptions{LazyThreshold: vchain.DefaultLazyThreshold})
	if err != nil {
		log.Fatal(err)
	}

	makes := []string{"benz", "bmw", "audi", "toyota"}
	bodies := []string{"sedan", "van", "suv"}
	rng := rand.New(rand.NewSource(99))
	id := uint64(1)
	var rtPubs, lzPubs []vchain.Publication
	for blk := 0; blk < 10; blk++ {
		var offers []vchain.Object
		for i := 0; i < 3; i++ {
			price := int64(150 + rng.Intn(200))
			offers = append(offers, vchain.Object{
				ID: vchain.ObjectID(id), TS: int64(blk),
				V: []int64{price},
				W: []string{bodies[rng.Intn(len(bodies))], makes[rng.Intn(len(makes))]},
			})
			id++
		}
		if blk == 6 { // plant a guaranteed hit
			offers = append(offers, vchain.Object{
				ID: vchain.ObjectID(id), TS: int64(blk), V: []int64{225}, W: []string{"sedan", "benz"},
			})
			id++
		}
		_, p1, err := realtime.Mine(offers, int64(blk))
		if err != nil {
			log.Fatal(err)
		}
		rtPubs = append(rtPubs, p1...)
		_, p2, err := lazy.Mine(offers, int64(blk))
		if err != nil {
			log.Fatal(err)
		}
		lzPubs = append(lzPubs, p2...)
	}
	if pub := lazy.Unsubscribe(lazyID); pub != nil {
		lzPubs = append(lzPubs, *pub) // final pending span
	}

	verify := func(name string, node *vchain.Node, pubs []vchain.Publication) {
		client := sys.NewLightClient()
		if err := client.SyncHeaders(node.Headers()); err != nil {
			log.Fatal(err)
		}
		total, voBytes := 0, 0
		for i := range pubs {
			objs, err := client.VerifyPublication(q, &pubs[i])
			if err != nil {
				log.Fatalf("%s: publication [%d,%d] failed: %v", name, pubs[i].From, pubs[i].To, err)
			}
			total += len(objs)
			voBytes += client.VOSize(pubs[i].VO)
			if len(objs) > 0 {
				for _, o := range objs {
					fmt.Printf("  %s subscriber got: block %d price=%d %v\n", name, o.TS, o.V[0], o.W)
				}
			}
		}
		fmt.Printf("%s: %d publications, %d verified results, %d VO bytes total\n\n",
			name, len(pubs), total, voBytes)
	}
	fmt.Println("real-time delivery (one publication per block):")
	verify("real-time", realtime, rtPubs)
	fmt.Println("lazy delivery (mismatching blocks aggregated until a hit):")
	verify("lazy", lazy, lzPubs)
}
