package vchain

import (
	"log/slog"
	"net/http"

	"github.com/vchain-go/vchain/internal/gateway"
)

// GatewayTenant provisions one API-key principal of the HTTP gateway.
type GatewayTenant = gateway.Tenant

// LoadGatewayTenants parses a tenant provisioning file
// ("name:key[:rate[:burst]]" per line, '#' comments).
func LoadGatewayTenants(path string) ([]GatewayTenant, error) {
	return gateway.LoadTenants(path)
}

// GatewayConfig tunes a node's HTTP front door: admission control
// (tenants, token buckets, inflight cap) and logging. The zero value
// serves an open, unlimited-rate gateway.
type GatewayConfig struct {
	// Tenants are the provisioned API-key principals; empty means the
	// gateway is open (anonymous tenant).
	Tenants []GatewayTenant
	// TenantRate / TenantBurst default the per-tenant token bucket
	// (0 rate = unlimited).
	TenantRate  float64
	TenantBurst int
	// GlobalRate caps the whole gateway (its burst derives from the
	// rate).
	GlobalRate float64
	// MaxInflight caps concurrently processed requests (0 = default
	// 64, negative = uncapped); excess load sheds with 429.
	MaxInflight int
	// Logger receives structured request logs; nil disables them.
	Logger *slog.Logger
}

// GatewayHandle is a node's HTTP gateway (Node.ServeGateway).
type GatewayHandle struct {
	gw   *gateway.Gateway
	addr string
}

// Addr returns the bound listen address ("" without a listener).
func (h *GatewayHandle) Addr() string { return h.addr }

// MetricsHandler returns the scrape-only surface (/metrics, /healthz)
// over the gateway's one registry, for a listener off the query network.
func (h *GatewayHandle) MetricsHandler() http.Handler { return h.gw.MetricsHandler() }

// Close stops the gateway and its open connections (the node keeps
// running; any TCP endpoint is unaffected).
func (h *GatewayHandle) Close() error { return h.gw.Close() }

// ServeGateway exposes this node over HTTP/JSON at addr
// ("127.0.0.1:0" picks a port): authenticated tenants run verifiable
// time-window queries (each answer part carries its canonical VO
// bytes for external verification), and scrapers read Prometheus-style
// metrics on /metrics, including per-shard health, failure, and restart
// counters as vchain_shard_* families; an empty addr builds it without
// a listener, for MetricsHandler alone. A gateway runs alongside any TCP
// endpoint (Serve); the two share the node and its proof engines. The
// exported vchain_service_evictions_total counter tracks the TCP
// endpoint's slow-consumer evictions when one is attached.
func (n *Node) ServeGateway(addr string, cfg GatewayConfig) (*GatewayHandle, error) {
	gw, err := gateway.New(n.node, gateway.Config{
		Tenants:     cfg.Tenants,
		TenantRate:  cfg.TenantRate,
		TenantBurst: cfg.TenantBurst,
		GlobalRate:  cfg.GlobalRate,
		MaxInflight: cfg.MaxInflight,
		Logger:      cfg.Logger,
		ServiceCounters: map[string]func() int64{
			"evictions": func() int64 {
				n.mu.Lock()
				defer n.mu.Unlock()
				if n.srv == nil {
					return 0
				}
				return int64(n.srv.Evictions())
			},
		},
	})
	if err != nil {
		return nil, err
	}
	h := &GatewayHandle{gw: gw}
	if addr != "" {
		if h.addr, err = gw.Serve(addr); err != nil {
			return nil, err
		}
	}
	return h, nil
}
