// Package remote dispatches sweep points to orion-serve backends over
// HTTP — the bridge between the distributed work queue (internal/queue)
// and the simulation service (internal/serve).
//
// A Pool is an orion.PointRunner: the coordinator claims a point from
// the lease/heartbeat queue exactly as before, but instead of running it
// locally the pool POSTs it to a backend's /v1/run with the point's
// injection rate folded into the configuration (so the backend's
// digest-keyed result cache gets per-point hits), and the result commits
// only while the lease is held. The exactly-one-commit invariant is the
// queue's; this package only has to fail *cleanly*:
//
//   - every try is bounded by a per-try deadline derived from the lease,
//     carried to the backend as the request's deadline_ms,
//   - failed tries retry on a different backend with exponential backoff
//     and deterministic jitter, honouring Retry-After on 429,
//   - each backend sits behind a circuit breaker (consecutive-failure
//     trip, half-open probe) so a dead host stops absorbing the retry
//     budget after TripAfter failures,
//   - when every breaker is open, or the retry budget is spent, the
//     point falls back to local execution so the sweep still completes
//     with results byte-identical to a local run — unless the caller
//     opted out, in which case the point fails with an error wrapping
//     orion.ErrRemote and orion.ErrBackendDown.
//
// Deterministic simulation outcomes reported by a backend (saturated,
// deadlock, invariant) are reconstructed as the matching orion sentinel
// errors: a remote failure journals and merges exactly like a local one.
package remote

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"orion"
)

// MaxBackends bounds a backend list; more is almost certainly a parsing
// accident (a file path, a port range) rather than a real fleet.
const MaxBackends = 32

// ParseBackends validates a comma-separated backend list into normalised
// base URLs (scheme://host[:port][/path], no trailing slash). Errors are
// field-qualified by list position, matching the CLI's parse-time
// validation style.
func ParseBackends(list string) ([]string, error) {
	if strings.TrimSpace(list) == "" {
		return nil, fmt.Errorf("backends: at least one backend URL is required")
	}
	parts := strings.Split(list, ",")
	if len(parts) > MaxBackends {
		return nil, fmt.Errorf("backends: %d backends exceed the %d-backend limit", len(parts), MaxBackends)
	}
	out := make([]string, 0, len(parts))
	seen := make(map[string]int, len(parts))
	for i, raw := range parts {
		s := strings.TrimSpace(raw)
		if s == "" {
			return nil, fmt.Errorf("backends[%d]: empty backend URL", i)
		}
		u, err := url.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("backends[%d]: %v", i, err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return nil, fmt.Errorf("backends[%d]: scheme %q is not http or https", i, u.Scheme)
		}
		if u.Host == "" {
			return nil, fmt.Errorf("backends[%d]: missing host in %q", i, s)
		}
		if u.RawQuery != "" || u.Fragment != "" {
			return nil, fmt.Errorf("backends[%d]: %q must not carry a query or fragment", i, s)
		}
		if u.User != nil {
			return nil, fmt.Errorf("backends[%d]: %q must not carry credentials", i, s)
		}
		u.Path = strings.TrimRight(u.Path, "/")
		norm := u.String()
		if prev, dup := seen[norm]; dup {
			return nil, fmt.Errorf("backends[%d]: duplicate of backends[%d] (%s)", i, prev, norm)
		}
		seen[norm] = i
		out = append(out, norm)
	}
	return out, nil
}

// Options configures a backend pool.
type Options struct {
	// Backends are normalised base URLs (ParseBackends). Required.
	Backends []string
	// Lease is the queue lease the dispatched points run under; it
	// derives the default PerTryTimeout. Zero is fine when PerTryTimeout
	// is set explicitly.
	Lease time.Duration
	// PerTryTimeout bounds one dispatch attempt end to end and is carried
	// to the backend as deadline_ms, so both sides abort at the same
	// bound. Default 10×Lease, or 30s when no lease is given.
	PerTryTimeout time.Duration
	// Retries is the total number of dispatch attempts per point before
	// the pool gives up on the network. Default 3.
	Retries int
	// TripAfter is the consecutive-failure count that opens a backend's
	// circuit breaker. Default 3.
	TripAfter int
	// CoolDown is how long an open breaker waits before admitting one
	// half-open probe. Default 5s.
	CoolDown time.Duration
	// RetryBase and RetryMax bound the inter-attempt backoff schedule
	// (exponential from RetryBase, jittered, capped at RetryMax; a 429's
	// Retry-After raises the sleep within the same cap). Defaults 100ms
	// and 5s.
	RetryBase, RetryMax time.Duration
	// NoLocalFallback disables local execution when the pool cannot get
	// an answer out of any backend: the point fails with an error
	// wrapping orion.ErrRemote (and orion.ErrBackendDown when every
	// breaker was open) instead of degrading gracefully.
	NoLocalFallback bool
	// Local runs a point locally on fallback; nil means orion.RunPoint.
	Local orion.PointRunner
	// Client overrides the HTTP client (tests, custom transports).
	Client *http.Client
}

// Stats is a snapshot of a pool's dispatch accounting.
type Stats struct {
	// Remote counts points answered by a backend; Local counts points
	// settled by the local fallback.
	Remote, Local int
	// Attempts counts HTTP dispatch attempts; Busy the 429 answers among
	// them; Failures the attempts lost to the network or a misbehaving
	// backend (5xx, resets, truncation, undecodable bodies).
	Attempts, Busy, Failures int
	// Trips counts circuit-breaker open transitions; AllDown counts
	// dispatches that found every breaker open with no probe due.
	Trips, AllDown int
}

// BackendState is one backend's operator-facing breaker status.
type BackendState struct {
	// URL is the normalised base URL.
	URL string
	// State is "closed", "open" or "half-open".
	State string
	// Consecutive is the current consecutive-failure count.
	Consecutive int
}

// backend pairs a base URL with its circuit breaker.
type backend struct {
	url     string
	breaker breaker
}

// Pool dispatches points to a fixed set of orion-serve backends. It is
// safe for concurrent use by any number of workers.
type Pool struct {
	opts   Options
	perTry time.Duration
	client *http.Client
	local  orion.PointRunner

	backends []*backend

	mu    sync.Mutex
	stats Stats
}

// NewPool validates opts and builds a dispatch pool.
func NewPool(opts Options) (*Pool, error) {
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("remote: at least one backend is required")
	}
	if len(opts.Backends) > MaxBackends {
		return nil, fmt.Errorf("remote: %d backends exceed the %d-backend limit", len(opts.Backends), MaxBackends)
	}
	p := &Pool{opts: opts}
	p.perTry = opts.PerTryTimeout
	if p.perTry <= 0 {
		if opts.Lease > 0 {
			p.perTry = 10 * opts.Lease
		} else {
			p.perTry = 30 * time.Second
		}
	}
	if p.opts.Retries <= 0 {
		p.opts.Retries = 3
	}
	if p.opts.TripAfter <= 0 {
		p.opts.TripAfter = 3
	}
	if p.opts.CoolDown <= 0 {
		p.opts.CoolDown = 5 * time.Second
	}
	if p.opts.RetryBase <= 0 {
		p.opts.RetryBase = 100 * time.Millisecond
	}
	if p.opts.RetryMax <= 0 {
		p.opts.RetryMax = 5 * time.Second
	}
	p.local = opts.Local
	if p.local == nil {
		p.local = orion.RunPoint
	}
	p.client = opts.Client
	if p.client == nil {
		p.client = &http.Client{Transport: &http.Transport{
			Proxy: http.ProxyFromEnvironment,
			DialContext: (&net.Dialer{
				Timeout:   5 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			MaxIdleConns:        4 * MaxBackends,
			MaxIdleConnsPerHost: 8,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	for _, u := range opts.Backends {
		p.backends = append(p.backends, &backend{
			url:     u,
			breaker: breaker{tripAfter: p.opts.TripAfter, coolDown: p.opts.CoolDown},
		})
	}
	return p, nil
}

// Stats returns a snapshot of the pool's dispatch accounting.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// BackendStates returns each backend's breaker status in list order.
func (p *Pool) BackendStates() []BackendState {
	out := make([]BackendState, len(p.backends))
	for i, b := range p.backends {
		state, consecutive := b.breaker.status()
		out[i] = BackendState{URL: b.url, State: state, Consecutive: consecutive}
	}
	return out
}

// pick scans the backend list from a deterministic offset and returns
// the first backend whose breaker admits a try (closed, or open past its
// cool-down — in which case the breaker has transitioned to half-open
// and this caller holds its single probe). Nil when every breaker
// refuses.
func (p *Pool) pick(start int) *backend {
	n := len(p.backends)
	for off := 0; off < n; off++ {
		b := p.backends[(start+off)%n]
		if b.breaker.allow() {
			return b
		}
	}
	return nil
}

// backendOffset spreads concurrent points over the backend list by
// hashing the rate, so a fleet of dispatch workers does not converge on
// backend 0.
func backendOffset(rate float64, n int) int {
	if n <= 0 {
		return 0
	}
	return int((math.Float64bits(rate) * 0x9e3779b97f4a7c15 >> 33) % uint64(n))
}
