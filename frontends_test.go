package vchain

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/proofs"
	"github.com/vchain-go/vchain/internal/service"
)

// TestFrontEndsServeBatchedAnswers sends one query through every
// time-window front end. Under acc2 each must answer with the VO of a
// batching core.SP walk (§6.3): the same bytes, with aggregated
// groups. acc1 cannot aggregate, so its answers stay the unbatched
// walk's. Every answer passes both the sequential and the batched
// verifier.
func TestFrontEndsServeBatchedAnswers(t *testing.T) {
	const blocks = 12 // default band 8: the 2-shard window crosses a band edge
	ctx := context.Background()
	q := Query{StartBlock: 0, EndBlock: blocks - 1, Bool: And(Or("sedan")), Width: 4}
	for _, accName := range []string{"acc1", "acc2"} {
		t.Run(accName, func(t *testing.T) {
			sys := testSystem(t, accName, IndexBoth)
			node, sharded := sys.NewNode(1), sys.NewNode(2)
			defer node.Close()
			defer sharded.Close()
			mine(t, node, 0, blocks)
			mine(t, sharded, 0, blocks)

			batch := accName == "acc2"
			ref := &core.SP{Acc: sys.acc, View: node.node.FullNode, Batch: batch, Engine: proofs.New(sys.acc, proofs.Options{})}
			want, err := ref.TimeWindowQuery(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			// Every block's van leaf misses the clause: one mismatch per
			// block, all of them in one group under acc2.
			if cited := groupCitations(want); batch && (len(want.Groups) == 0 || cited < 2) {
				t.Fatalf("reference walk has %d groups cited %d times; the query must aggregate ≥ 2 mismatches", len(want.Groups), cited)
			}
			wantBytes := core.EncodeVO(sys.acc, want)

			srv, err := node.Serve("127.0.0.1:0", SubscribeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			gw, err := node.ServeGateway("127.0.0.1:0", GatewayConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			cli, err := service.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			client := syncedClient(t, sys, node)
			spc, err := client.DialSP(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer spc.Close()

			frontEnds := []struct {
				name   string
				answer func() ([]core.WindowPart, error)
			}{
				{"FullNode", func() ([]core.WindowPart, error) {
					return node.node.FullNode.TimeWindowParts(ctx, q, false)
				}},
				{"shard.Node/2 shards", func() ([]core.WindowPart, error) {
					return sharded.node.TimeWindowParts(ctx, q, false)
				}},
				{"TCP QueryParts", func() ([]core.WindowPart, error) {
					return cli.QueryParts(ctx, q, false)
				}},
				{"TCP QueryDegraded", func() ([]core.WindowPart, error) {
					parts, gaps, err := cli.QueryDegraded(ctx, q)
					if err == nil && len(gaps) != 0 {
						err = fmt.Errorf("healthy node answered with gaps %v", gaps)
					}
					return parts, err
				}},
				{"HTTP gateway", func() ([]core.WindowPart, error) {
					return gatewayParts(sys, gw.Addr(), map[string]any{
						"startBlock": q.StartBlock, "endBlock": q.EndBlock, "keywords": [][]string{{"sedan"}},
					})
				}},
				{"facade SPClient", func() ([]core.WindowPart, error) {
					// SPClient.Query returns verified objects only; its
					// connection's parts carry the bytes it verified.
					objs, err := spc.Query(ctx, q)
					if err != nil {
						return nil, err
					}
					if len(objs) != blocks {
						return nil, fmt.Errorf("SPClient.Query: %d results, want %d", len(objs), blocks)
					}
					return spc.cli.QueryParts(ctx, q, false)
				}},
			}
			for _, fe := range frontEnds {
				t.Run(fe.name, func(t *testing.T) {
					parts, err := fe.answer()
					if err != nil {
						t.Fatal(err)
					}
					if len(parts) != 1 || parts[0].Start != q.StartBlock || parts[0].End != q.EndBlock {
						t.Fatalf("%d part(s), want one spanning the window", len(parts))
					}
					vo := parts[0].VO
					if !bytes.Equal(core.EncodeVO(sys.acc, vo), wantBytes) {
						t.Fatalf("VO differs from core.SP{Batch: %v}'s walk", batch)
					}
					if batch != (len(vo.Groups) > 0) {
						t.Fatalf("%d aggregated groups under %s", len(vo.Groups), accName)
					}
					for _, sequential := range []bool{true, false} {
						ver := client.verifier()
						ver.Sequential = sequential
						res, err := ver.VerifyWindowParts(q, parts)
						if err != nil {
							t.Fatalf("sequential=%v verifier: %v", sequential, err)
						}
						if len(res) != blocks {
							t.Fatalf("sequential=%v verifier: %d results, want %d", sequential, len(res), blocks)
						}
					}
				})
			}
		})
	}
}

// groupCitations counts the mismatch nodes of vo that cite a group.
func groupCitations(vo *core.VO) int {
	n := 0
	var walk func(*core.NodeVO)
	walk = func(nd *core.NodeVO) {
		if nd == nil {
			return
		}
		if nd.Kind == core.KindMismatch && nd.Group >= 0 {
			n++
		}
		walk(nd.Left)
		walk(nd.Right)
	}
	for _, b := range vo.Blocks {
		walk(b.Tree)
	}
	return n
}

// gatewayParts posts a query body to an open gateway and decodes the
// answer's VO bytes as an external client would.
func gatewayParts(sys *System, addr string, query map[string]any) ([]core.WindowPart, error) {
	body, _ := json.Marshal(query)
	resp, err := http.Post("http://"+addr+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("gateway status %d", resp.StatusCode)
	}
	var qr struct {
		Parts []struct {
			Start int    `json:"start"`
			End   int    `json:"end"`
			VO    string `json:"vo"`
		} `json:"parts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return nil, err
	}
	var parts []core.WindowPart
	for _, p := range qr.Parts {
		raw, err := base64.StdEncoding.DecodeString(p.VO)
		if err != nil {
			return nil, err
		}
		vo, err := core.DecodeVO(sys.acc, raw)
		if err != nil {
			return nil, err
		}
		parts = append(parts, core.WindowPart{Start: p.Start, End: p.End, VO: vo})
	}
	return parts, nil
}
