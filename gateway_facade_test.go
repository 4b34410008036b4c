package vchain

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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

// TestFacadeGatewayMetricsOnly: ServeGateway with an empty address
// opens no listener, and the handle's MetricsHandler serves the scrape
// surface alone — node counters on /metrics, no /v1 query route.
func TestFacadeGatewayMetricsOnly(t *testing.T) {
	sys := testSystem(t, "acc2", IndexBoth)
	node := sys.NewNode(1)
	defer node.Close()
	mine(t, node, 0, 3)
	h, err := node.ServeGateway("", GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Addr() != "" {
		t.Fatalf("gateway without a listener reports address %q", h.Addr())
	}
	srv := httptest.NewServer(h.MetricsHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), "vchain_proofs_total") {
		t.Fatalf("/metrics status %d without the proof counter:\n%s", resp.StatusCode, buf.String())
	}
	resp, err = http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("scrape-only handler answered /v1/query with %d", resp.StatusCode)
	}
}
