package gateway

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Tenant is one API-key principal of the gateway. Admission control is
// per tenant: each gets its own token bucket, and every metric and
// request log line is labeled with the tenant name (never the key).
type Tenant struct {
	// Name labels metrics and logs.
	Name string
	// Key is the API key presented in X-API-Key or
	// "Authorization: Bearer <key>".
	Key string
	// Rate is the tenant's sustained request budget in requests/second.
	// 0 adopts the gateway's default rate; negative means unlimited.
	Rate float64
	// Burst is the bucket depth (how far above the sustained rate a
	// short burst may go). 0 derives ceil(Rate), minimum 1.
	Burst int
}

// LoadTenants parses a tenant provisioning file: one tenant per line,
// "name:key[:rate[:burst]]", '#' comments and blank lines ignored.
//
//	alice:k-alice-1:50:100
//	bob:k-bob-7:10
//	ops:k-ops-0:-1        # unlimited
func LoadTenants(path string) ([]Tenant, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("gateway: tenants file: %w", err)
	}
	defer f.Close()
	var out []Tenant
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if i := strings.Index(text, "#"); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		parts := strings.Split(text, ":")
		if len(parts) < 2 || parts[0] == "" || parts[1] == "" {
			return nil, fmt.Errorf("gateway: tenants file line %d: want name:key[:rate[:burst]], got %q", line, text)
		}
		t := Tenant{Name: parts[0], Key: parts[1]}
		if len(parts) > 2 && parts[2] != "" {
			r, err := strconv.ParseFloat(parts[2], 64)
			if err == nil {
				err = checkRate(r)
			}
			if err != nil {
				return nil, fmt.Errorf("gateway: tenants file line %d: bad rate %q: %v", line, parts[2], err)
			}
			t.Rate = r
		}
		if len(parts) > 3 && parts[3] != "" {
			b, err := strconv.Atoi(parts[3])
			if err != nil {
				return nil, fmt.Errorf("gateway: tenants file line %d: bad burst %q: %v", line, parts[3], err)
			}
			t.Burst = b
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gateway: tenants file: %w", err)
	}
	return out, nil
}

// checkRate refuses a NaN or infinite rate: a NaN bucket refuses every
// request, and unlimited is spelled 0 or -1, not Inf.
func checkRate(r float64) error {
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return fmt.Errorf("rate %v is not finite (0 or -1 means unlimited)", r)
	}
	return nil
}

// bucket is a token bucket: capacity `burst` tokens refilled at `rate`
// tokens/second. A nil *bucket means unlimited.
type bucket struct {
	rate  float64
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// newBucket builds a bucket; rate <= 0 returns nil (unlimited).
func newBucket(rate float64, burst int) *bucket {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b <= 0 {
		b = math.Ceil(rate)
	}
	if b < 1 {
		b = 1
	}
	return &bucket{rate: rate, burst: b, tokens: b}
}

// allow takes one token if available; otherwise it reports how long
// until the next token accrues (the Retry-After hint).
func (b *bucket) allow(now time.Time) (bool, time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}

// tenantState is one admitted principal: its configuration plus its
// live bucket.
type tenantState struct {
	name   string
	bucket *bucket
}

// anonymousTenant labels unauthenticated traffic on an open gateway
// (no tenants provisioned).
const anonymousTenant = "anonymous"

// unknownTenant is the fixed metrics label for rejected keys — never
// the presented key itself, which would let an attacker mint unbounded
// label cardinality.
const unknownTenant = "(unknown)"

// admitter enforces the gateway's admission policy: API-key
// authentication, per-tenant and global token buckets, and a
// max-inflight cap that sheds excess load fail-fast.
type admitter struct {
	byKey    map[string]*tenantState
	anon     *tenantState // non-nil when the gateway is open (no tenants)
	global   *bucket
	inflight chan struct{} // nil = uncapped
}

// newAdmitter compiles the configuration into the runtime policy.
func newAdmitter(cfg Config) (*admitter, error) {
	if err := checkRate(cfg.TenantRate); err != nil {
		return nil, fmt.Errorf("gateway: TenantRate: %w", err)
	}
	if err := checkRate(cfg.GlobalRate); err != nil {
		return nil, fmt.Errorf("gateway: GlobalRate: %w", err)
	}
	a := &admitter{
		byKey:  make(map[string]*tenantState, len(cfg.Tenants)),
		global: newBucket(cfg.GlobalRate, 0),
	}
	for _, t := range cfg.Tenants {
		if t.Name == "" || t.Key == "" {
			return nil, fmt.Errorf("gateway: tenant %+v needs both a name and a key", t)
		}
		if _, dup := a.byKey[t.Key]; dup {
			return nil, fmt.Errorf("gateway: duplicate tenant key for %q", t.Name)
		}
		if err := checkRate(t.Rate); err != nil {
			return nil, fmt.Errorf("gateway: tenant %q: %w", t.Name, err)
		}
		rate := t.Rate
		if rate == 0 {
			rate = cfg.TenantRate
		}
		burst := t.Burst
		if burst == 0 {
			burst = cfg.TenantBurst
		}
		a.byKey[t.Key] = &tenantState{name: t.Name, bucket: newBucket(rate, burst)}
	}
	if len(cfg.Tenants) == 0 {
		// Open gateway: anonymous traffic shares one default-rate
		// bucket (still bounded by the global bucket and inflight cap).
		a.anon = &tenantState{name: anonymousTenant, bucket: newBucket(cfg.TenantRate, cfg.TenantBurst)}
	}
	maxInflight := cfg.MaxInflight
	if maxInflight == 0 {
		maxInflight = DefaultMaxInflight
	}
	if maxInflight > 0 {
		a.inflight = make(chan struct{}, maxInflight)
	}
	return a, nil
}

// apiKey extracts the presented key: X-API-Key, or a Bearer token.
func apiKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	auth := r.Header.Get("Authorization")
	if rest, ok := strings.CutPrefix(auth, "Bearer "); ok {
		return strings.TrimSpace(rest)
	}
	return ""
}

// authenticate resolves the request's tenant. ok == false means 401.
func (a *admitter) authenticate(r *http.Request) (*tenantState, bool) {
	key := apiKey(r)
	if len(a.byKey) == 0 {
		return a.anon, true
	}
	ts := a.byKey[key]
	if ts == nil {
		return nil, false
	}
	return ts, true
}

// throttle applies the global then per-tenant bucket. ok == false
// means 429 with the returned Retry-After hint.
func (a *admitter) throttle(ts *tenantState, now time.Time) (bool, time.Duration) {
	if ok, retry := a.global.allow(now); !ok {
		return false, retry
	}
	return ts.bucket.allow(now)
}

// acquire claims an inflight slot without blocking; the caller sheds
// with 429 when none is free. The returned release must be called
// exactly once when granted.
func (a *admitter) acquire() (release func(), ok bool) {
	if a.inflight == nil {
		return func() {}, true
	}
	select {
	case a.inflight <- struct{}{}:
		var once sync.Once
		return func() { once.Do(func() { <-a.inflight }) }, true
	default:
		return nil, false
	}
}

// inflightNow reports the currently held inflight slots (gauge).
func (a *admitter) inflightNow() int {
	if a.inflight == nil {
		return 0
	}
	return len(a.inflight)
}
