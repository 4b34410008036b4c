package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
	"github.com/vchain-go/vchain/internal/gateway"
	"github.com/vchain-go/vchain/internal/proofs"
	"github.com/vchain-go/vchain/internal/service"
	"github.com/vchain-go/vchain/internal/shard"
	"github.com/vchain-go/vchain/internal/storage"
	"github.com/vchain-go/vchain/internal/subscribe"
	"github.com/vchain-go/vchain/internal/workload"
)

// outDir receives the span dumps, the provenance files and the
// workloads' block stores: benchmark/out, whether the working directory
// is the repository root or this directory. It is git-ignored.
var outDir = func() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}()

// miner is what the harness needs from a node beyond serving it.
type miner interface {
	service.Chain
	MineBlock(objs []chain.Object, ts int64) (*chain.Block, error)
	Height() int
	Close() error
}

// env is one booted system under test: a node, its front ends on
// loopback, and a light client that has synced its headers.
type env struct {
	cfg  config
	name string
	ds   *workload.Dataset
	tr   *tracer
	// probe samples the host's speed between operations.
	probe *probe

	acc     accumulator.Accumulator
	builder *core.Builder
	node    miner
	full    *core.FullNode // nil on gob_sharded
	sharded *shard.Node    // nil elsewhere
	backend *tracedBackend // traced durable nodes only
	dir     string         // block store of a durable node

	srv     *service.Server
	cli     *service.Client
	gw      *gateway.Gateway
	gwURL   string
	tenants []*http.Client

	light *chain.LightStore
	ver   *core.Verifier
	// streams is sub_stream's open subscriptions.
	streams *streams

	// rd and wr count the gob connection's bytes (traced runs).
	rd, wr     atomic.Int64
	headerSync time.Duration
}

// keyCapacity is acc2's domain bound: every range prefix of the numeric
// space plus the vocabulary, rounded up to a power of two.
func keyCapacity(ds *workload.Dataset) int {
	need := ds.Dims*(1<<uint(ds.Width+1)) + len(ds.Vocabulary) + 64
	q := 256
	for q < need {
		q *= 2
	}
	return q
}

// front returns the chain the front ends serve: the node itself, or in
// a traced run the decorator that times its query entry point.
func (e *env) front() service.Chain {
	var c service.Chain = e.node
	if e.tr != nil {
		c = tracedChain{c, e.tr}
	}
	if e.cfg.Front != nil {
		c = e.cfg.Front(c)
	}
	return c
}

// openDurable opens (or creates) the segmented log in e.dir with the
// default flush policy, fsync on commit, and indexes it into a node.
func (e *env) openDurable(opts ...core.NodeOption) error {
	var sopts storage.Options
	if e.tr != nil {
		e.backend = &tracedBackend{tr: e.tr}
		sopts.Hooks = &storage.Hooks{Sync: e.backend.syncHook}
	}
	log, err := storage.Open(e.dir, sopts)
	if err != nil {
		return err
	}
	var be storage.Backend = log
	if e.backend != nil {
		e.backend.Backend = log
		be = e.backend
	}
	fn, err := core.NewFullNodeOn(0, e.builder, be, opts...)
	if err != nil {
		log.Close()
		return err
	}
	fn.Proofs = proofs.New(e.acc, proofs.Options{Workers: e.cfg.ProofWorkers})
	e.full, e.node = fn, fn
	return nil
}

// mine extends the chain to the given length during set-up, probing
// the host between blocks so that setup_s can be scaled like the rest.
func (e *env) mine(blocks int) error {
	for h := e.node.Height(); h < blocks; h++ {
		if _, err := e.node.MineBlock(e.ds.Blocks[h], int64(h)); err != nil {
			return fmt.Errorf("mining block %d: %w", h, err)
		}
		e.probe.tick()
	}
	return nil
}

// setup boots workload name over ds. Everything a user waits for before
// the first operation is in here and so in setup_s: key generation,
// mining or reopening the chain, starting the front ends, the client's
// header sync, and warming caches and connections.
func setup(cfg config, name string, ds *workload.Dataset, queries []core.Query, subs []core.Query, tr *tracer, pr *probe) (e *env, err error) {
	e = &env{cfg: cfg, name: name, ds: ds, tr: tr, probe: pr}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	q := keyCapacity(ds)
	e.acc = accumulator.KeyGenCon2Deterministic(pairing.ByName(cfg.Preset), q, accumulator.NewDictEncoder(q), []byte("vchain-benchmark"))
	if tr != nil {
		e.acc = tracedAcc{e.acc, tr}
	}
	e.builder = &core.Builder{Acc: e.acc, Mode: core.ModeBoth, SkipSize: cfg.SkipSize, Width: ds.Width}

	switch name {
	case "gob_prove", "http_hot", "sub_stream":
		fn := core.NewFullNode(0, e.builder)
		fn.Proofs = proofs.New(e.acc, proofs.Options{Workers: cfg.ProofWorkers})
		e.full, e.node = fn, fn
	case "gob_sharded":
		e.sharded = shard.New(0, e.builder, shard.Options{Shards: cfg.Shards, Workers: cfg.ProofWorkers})
		e.node = e.sharded
	case "gob_paged", "mine_durable":
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if e.dir, err = os.MkdirTemp(outDir, "store-"); err != nil {
			return nil, err
		}
		if err := e.openDurable(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}

	switch name {
	case "mine_durable":
		return e, nil // a fresh store; the timed phase does the mining
	case "sub_stream":
		err = e.mine(cfg.SubWarmBlocks)
	default:
		err = e.mine(cfg.ChainBlocks)
	}
	if err != nil {
		return nil, err
	}
	if name == "gob_paged" {
		// Restart over the log just written, with a decoded-ADS cache far
		// smaller than the chain.
		if err := e.node.Close(); err != nil {
			return nil, err
		}
		if err := e.openDurable(core.WithADSCache(cfg.ADSCacheBlocks)); err != nil {
			return nil, err
		}
		if e.backend != nil {
			e.backend.keepData = true
		}
	}

	e.light = chain.NewLightStore(0)
	e.ver = &core.Verifier{Acc: e.acc, Light: e.light}
	if name == "http_hot" {
		return e, e.bootHTTP(queries)
	}
	return e, e.bootGob(queries, subs)
}

// bootGob starts the TCP/gob server and a light client on it.
func (e *env) bootGob(queries, subs []core.Query) error {
	e.srv = service.NewServer(e.front(), service.ServerConfig{
		Subscriptions: subscribe.Options{UseIPTree: true, Dims: e.ds.Dims, Width: e.ds.Width},
	})
	addr, err := e.srv.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	var ccfg service.ClientConfig
	if e.tr != nil {
		ccfg.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return countedConn{c, &e.rd, &e.wr}, nil
		}
	}
	if e.cli, err = service.Dial(addr, ccfg); err != nil {
		return err
	}
	t0 := time.Now()
	if err := e.cli.SyncHeaders(context.Background(), e.light); err != nil {
		return err
	}
	e.headerSync = time.Since(t0)
	if e.name == "sub_stream" {
		return e.subscribe(subs)
	}
	// Warm the connection and both ends' code paths with queries from
	// the far end of the stream, which no run reaches.
	for _, q := range queries[len(queries)-2:] {
		if _, err := e.cli.QueryVerified(context.Background(), q, false, e.ver); err != nil {
			return fmt.Errorf("warm-up query: %w", err)
		}
	}
	return nil
}

// bootHTTP starts the HTTP/JSON gateway with one API key per tenant,
// syncs headers over it, computes the pool's proofs once so the timed
// phase finds them cached, and opens each tenant's connection.
func (e *env) bootHTTP(queries []core.Query) error {
	var provisioned []gateway.Tenant
	for i := 0; i < e.cfg.Tenants; i++ {
		provisioned = append(provisioned, gateway.Tenant{Name: fmt.Sprintf("t%d", i), Key: tenantKey(i)})
		e.tenants = append(e.tenants, &http.Client{Transport: &http.Transport{}})
	}
	gw, err := gateway.New(e.front(), gateway.Config{Tenants: provisioned})
	if err != nil {
		return err
	}
	e.gw = gw
	addr, err := gw.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	e.gwURL = "http://" + addr
	t0 := time.Now()
	if err := e.syncHeadersHTTP(); err != nil {
		return err
	}
	e.headerSync = time.Since(t0)
	pool := queries[:e.cfg.HotPool]
	for _, q := range pool {
		if _, err := e.node.TimeWindowParts(context.Background(), q, false); err != nil {
			return fmt.Errorf("warming proofs: %w", err)
		}
		e.probe.tick()
	}
	for i := range e.tenants {
		for _, q := range pool[:2] {
			if _, _, err := e.httpQuery(i, q, 0); err != nil {
				return fmt.Errorf("warm-up request: %w", err)
			}
		}
	}
	return nil
}

func tenantKey(i int) string { return fmt.Sprintf("bench-key-%d", i) }

// syncHeadersHTTP pages GET /v1/headers into the light store, which
// re-validates linkage and proof-of-work as for any other source.
func (e *env) syncHeadersHTTP() error {
	for {
		from := e.light.Height()
		req, err := http.NewRequest("GET", fmt.Sprintf("%s/v1/headers?from=%d", e.gwURL, from), nil)
		if err != nil {
			return err
		}
		req.Header.Set("X-API-Key", tenantKey(0))
		resp, err := e.tenants[0].Do(req)
		if err != nil {
			return err
		}
		var page struct {
			Height  int `json:"height"`
			Headers []struct {
				Height       uint64 `json:"height"`
				TS           int64  `json:"ts"`
				Nonce        uint64 `json:"nonce"`
				PrevHash     string `json:"prevHash"`
				MerkleRoot   string `json:"merkleRoot"`
				SkipListRoot string `json:"skipListRoot"`
			} `json:"headers"`
		}
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("headers page from %d: %w", from, err)
		}
		hs := make([]chain.Header, len(page.Headers))
		for i, h := range page.Headers {
			hs[i] = chain.Header{Height: h.Height, TS: h.TS, Nonce: h.Nonce}
			for _, f := range []struct {
				dst *chain.Digest
				src string
			}{{&hs[i].PrevHash, h.PrevHash}, {&hs[i].MerkleRoot, h.MerkleRoot}, {&hs[i].SkipListRoot, h.SkipListRoot}} {
				if f.src == "" {
					continue
				}
				if len(f.src) != 2*len(f.dst) {
					return fmt.Errorf("header %d: bad digest %q", h.Height, f.src)
				}
				if _, err := hex.Decode(f.dst[:], []byte(f.src)); err != nil {
					return fmt.Errorf("header %d: bad digest %q", h.Height, f.src)
				}
			}
		}
		if err := e.light.Sync(hs); err != nil {
			return err
		}
		if e.light.Height() >= page.Height {
			return nil
		}
		if e.light.Height() == from {
			return fmt.Errorf("header sync stalled at %d of %d", from, page.Height)
		}
	}
}

// close stops everything setup started and removes the block store.
func (e *env) close() {
	if e.cli != nil {
		e.cli.Close()
	}
	if e.streams != nil {
		e.streams.stop()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.gw != nil {
		e.gw.Close()
	}
	for _, c := range e.tenants {
		c.CloseIdleConnections()
	}
	if e.node != nil {
		e.node.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}
