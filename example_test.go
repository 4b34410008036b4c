package vchain_test

import (
	"errors"
	"fmt"

	vchain "github.com/vchain-go/vchain"
)

// Example shows the complete verifiable-query flow: mine, sync headers,
// query, verify.
func Example() {
	sys, err := vchain.NewSystem(vchain.Config{
		Preset:   "toy", // never use "toy" outside tests and docs
		BitWidth: 8,
		Capacity: 512,
		Seed:     []byte("doc-example"),
	})
	if err != nil {
		panic(err)
	}

	node := sys.NewNode(1)
	node.Mine([]vchain.Object{
		{ID: 1, TS: 0, V: []int64{42}, W: []string{"sedan", "benz"}},
		{ID: 2, TS: 0, V: []int64{99}, W: []string{"van", "audi"}},
	}, 0)

	client := sys.NewLightClient()
	client.SyncHeaders(node.Headers())

	q := vchain.Query{
		StartBlock: 0, EndBlock: 0,
		Range: &vchain.RangeCond{Lo: []int64{0}, Hi: []int64{50}},
		Bool:  vchain.And(vchain.Or("sedan")),
		Width: 8,
	}
	parts, _ := node.TimeWindow(q)
	results, err := client.Verify(q, parts)
	fmt.Println(len(results), err)
	// Output: 1 <nil>
}

// ExampleLightClient_Verify demonstrates that a cheating SP is caught:
// dropping a block from the VO yields a completeness violation.
func ExampleLightClient_Verify() {
	sys, _ := vchain.NewSystem(vchain.Config{
		Preset: "toy", BitWidth: 8, Capacity: 512, Seed: []byte("doc-cheat"),
	})
	node := sys.NewNode(1)
	for i := 0; i < 2; i++ {
		node.Mine([]vchain.Object{
			{ID: vchain.ObjectID(i + 1), TS: int64(i), V: []int64{7}, W: []string{"sedan"}},
		}, int64(i))
	}
	client := sys.NewLightClient()
	client.SyncHeaders(node.Headers())

	q := vchain.Query{StartBlock: 0, EndBlock: 1, Bool: vchain.And(vchain.Or("sedan")), Width: 8}
	parts, _ := node.TimeWindow(q)
	parts[0].VO.Blocks = parts[0].VO.Blocks[:1] // the "SP" hides the older block

	_, err := client.Verify(q, parts)
	fmt.Println(errors.Is(err, vchain.ErrCompleteness))
	// Output: true
}

// ExampleNode_Subscribe registers a continuous query and verifies
// its publications.
func ExampleNode_Subscribe() {
	sys, _ := vchain.NewSystem(vchain.Config{
		Preset: "toy", BitWidth: 8, Capacity: 512, Seed: []byte("doc-sub"),
	})
	node := sys.NewNode(1)
	q := vchain.Query{Bool: vchain.And(vchain.Or("benz", "bmw")), Width: 8}
	node.Subscribe(q, vchain.SubscribeOptions{})

	_, pubs, _ := node.Mine([]vchain.Object{
		{ID: 1, TS: 0, V: []int64{10}, W: []string{"sedan", "benz"}},
	}, 0)

	client := sys.NewLightClient()
	client.SyncHeaders(node.Headers())
	objs, err := client.VerifyPublication(q, &pubs[0])
	fmt.Println(len(objs), err)
	// Output: 1 <nil>
}
