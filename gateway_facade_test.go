package vchain

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestFacadeServeGateway: the public ServeGateway surface works end to
// end at every shard count — a tenant-keyed JSON query answers with
// parts and VO bytes, and /metrics scrapes.
func TestFacadeServeGateway(t *testing.T) {
	sys := testSystem(t, "acc2", IndexBoth)

	run := func(t *testing.T, h *GatewayHandle) {
		body, _ := json.Marshal(map[string]any{
			"startBlock": 0, "endBlock": 2,
			"keywords": [][]string{{"sedan"}},
		})
		req, err := http.NewRequest("POST", "http://"+h.Addr()+"/v1/query", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", "k-test")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", resp.StatusCode)
		}
		var qr struct {
			Results []json.RawMessage `json:"results"`
			Parts   []struct {
				VO string `json:"vo"`
			} `json:"parts"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		if len(qr.Parts) == 0 || qr.Parts[0].VO == "" {
			t.Fatalf("answer carries no VO bytes: %+v", qr)
		}
		if len(qr.Results) == 0 {
			t.Fatal("no results for the sedan query")
		}

		mresp, err := http.Get("http://" + h.Addr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer mresp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(mresp.Body)
		if !strings.Contains(buf.String(), "vchain_gateway_requests_total") {
			t.Fatal("/metrics missing the request counter family")
		}
	}

	forEachShardCount(t, func(t *testing.T, shards int) {
		node := sys.NewNode(shards)
		defer node.Close()
		mine(t, node, 0, 10)
		h, err := node.ServeGateway("127.0.0.1:0", GatewayConfig{
			Tenants: []GatewayTenant{{Name: "test", Key: "k-test"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		run(t, h)
	})
}
