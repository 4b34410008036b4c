package gateway

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
)

// FuzzQueryBody posts arbitrary bodies to /v1/query on a toy node. The
// gateway must never panic and must answer only 200, 400, 503 or 504;
// the parts of every 200 answer must decode as canonical VOs and verify
// against the query the body asked for.
func FuzzQueryBody(f *testing.F) {
	const blocks = 4
	node := buildNode(f, blocks)
	g, err := New(node, Config{})
	if err != nil {
		f.Fatal(err)
	}
	h := g.Handler()
	light := chain.NewLightStore(0)
	if err := light.Sync(node.Store.Headers()); err != nil {
		f.Fatal(err)
	}
	ver := &core.Verifier{Acc: node.Acc(), Light: light}

	for _, body := range []map[string]any{
		queryBody(0, blocks-1, false),
		queryBody(1, 2, true),
		{"startBlock": 0, "endBlock": blocks - 1, "range": map[string]any{"lo": []int64{2}, "hi": []int64{8}}},
		{"startBlock": 0, "endBlock": blocks - 1, "keywords": [][]string{{}}},
		{"startBlock": 3, "endBlock": 0},
	} {
		seed, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"startBlock":0,"endBlock":1,"unknown":1}`))
	f.Add([]byte(`{"range":{"lo":[1,2],"hi":[0]}}`))
	f.Add([]byte("not json"))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		// The handler decoded the body's first JSON value; so does this.
		var req queryRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for an undecodable body %q: %v", body, err)
		}
		var qr queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			t.Fatalf("200 with a malformed answer: %v", err)
		}
		parts := make([]core.WindowPart, 0, len(qr.Parts))
		for _, p := range qr.Parts {
			raw, err := base64.StdEncoding.DecodeString(p.VO)
			if err != nil {
				t.Fatalf("part [%d,%d]: bad base64: %v", p.Start, p.End, err)
			}
			vo, err := core.DecodeVO(node.Acc(), raw)
			if err != nil {
				t.Fatalf("part [%d,%d]: VO does not decode: %v", p.Start, p.End, err)
			}
			parts = append(parts, core.WindowPart{Start: p.Start, End: p.End, VO: vo})
		}
		got, err := ver.VerifyWindowParts(req.query(node.BitWidth()), parts)
		if err != nil {
			t.Fatalf("200 answer to %q does not verify: %v", body, err)
		}
		if len(got) != len(qr.Results) {
			t.Fatalf("verified %d results, answer lists %d", len(got), len(qr.Results))
		}
	})
}

// FuzzLoadTenants feeds arbitrary provisioning files to LoadTenants. It
// must never panic; every tenant it accepts has a name, a key and a
// finite rate, and New accepts or refuses the set without panicking.
func FuzzLoadTenants(f *testing.F) {
	node := buildNode(f, 1)
	path := filepath.Join(f.TempDir(), "tenants")
	f.Add([]byte("# provisioning\nalice:k-alice:50:100\nbob:k-bob:10\n\nops:k-ops:-1  # unlimited\n"))
	f.Add([]byte("a:k\nb:k\n"))
	f.Add([]byte("alice:k-a:NaN\n"))
	f.Add([]byte("alice:k-a:1e308:-5\n:k\nx:\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		ts, err := LoadTenants(path)
		if err != nil {
			return
		}
		for _, tn := range ts {
			if tn.Name == "" || tn.Key == "" || math.IsNaN(tn.Rate) || math.IsInf(tn.Rate, 0) {
				t.Fatalf("accepted tenant %+v", tn)
			}
		}
		New(node, Config{Tenants: ts})
	})
}
