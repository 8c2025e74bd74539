package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"orion"
	"orion/internal/remote"
	"orion/internal/serve"
)

// The serve-mixed load is sized for a 2-CPU machine: two closed-loop
// clients, each with one connection, against two simulation workers.
const (
	serveClients = 2
	serveWorkers = 2
	// hotSeeds is the number of configurations that repeat, so three
	// requests in four are answered from the result cache.
	hotSeeds = 16
)

// service is an in-process orion-serve on loopback and the remote pool
// that calls it.
type service struct {
	srv       *serve.Server
	ts        *httptest.Server
	pool      *remote.Pool
	transport *http.Transport
}

// startService starts a server with its result cache in cacheDir. With
// a tracer, handler spans are recorded for requests that carry a span id.
func startService(cacheDir string, tr *tracer) (*service, error) {
	srv, err := serve.New(serve.Options{Workers: serveWorkers, QueueDepth: serveClients, CacheDir: cacheDir})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(traceHandler(tr, srv.Handler()))
	transport := &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}
	pool, err := remote.NewPool(remote.Options{
		Backends:        []string{ts.URL},
		NoLocalFallback: true,
		Client:          &http.Client{Transport: tracingTransport{base: transport}},
	})
	s := &service{srv: srv, ts: ts, pool: pool, transport: transport}
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

func (s *service) stop() error {
	s.ts.Close()
	s.transport.CloseIdleConnections()
	return s.srv.Drain()
}

// serveMixed is two clients calling remote.Pool.RunPoint against the
// service: 4×4 VC16 at 0.05 with 1,000 sample packets, three requests in
// four for one of the hot seeds and one for a seed never seen before.
type serveMixed struct {
	p    params
	cfg  orion.Config
	hot  []int64
	svc  *service
	dirs int

	// Counters since mark.
	requests  atomic.Int64
	stats     serve.Stats
	poolStats remote.Stats
}

func newServeMixed(p params) *serveMixed {
	cfg := orion.OnChip4x4(orion.VC16(), 0.05)
	cfg.Sim.SamplePackets = 1000
	if p.quick {
		cfg.Sim.SamplePackets = 200
	}
	w := &serveMixed{p: p, cfg: cfg}
	for k := uint64(0); k < hotSeeds; k++ {
		w.hot = append(w.hot, int64(splitmix64(uint64(p.seed)<<8|k)>>17))
	}
	return w
}

// splitmix64 is a stateless 64-bit mixer: equal inputs give equal
// outputs, so each client's op sequence is a pure function of the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (w *serveMixed) cacheDir() string {
	w.dirs++
	return filepath.Join(w.p.dir, fmt.Sprintf("cache-%d", w.dirs))
}

// setUp starts a service on an empty cache; stopping it, which syncs the
// cache index to disk, is not part of the set-up.
func (w *serveMixed) setUp() (func() error, error) {
	svc, err := startService(w.cacheDir(), nil)
	if err != nil {
		return nil, err
	}
	return svc.stop, nil
}

func (w *serveMixed) start() error {
	svc, err := startService(w.cacheDir(), w.p.tr)
	w.svc = svc
	return err
}

func (w *serveMixed) stop() error { return w.svc.stop() }

func (w *serveMixed) clients() int { return serveClients }

// warmUp fills the cache with every hot seed.
func (w *serveMixed) warmUp() []op {
	ops := make([]op, len(w.hot))
	for k, seed := range w.hot {
		ops[k] = w.request(seed)
	}
	return ops
}

func (w *serveMixed) next(c, i int) op {
	r := splitmix64(uint64(w.p.seed)<<32 ^ uint64(c)<<24 ^ uint64(i))
	if r%4 == 3 {
		// Fresh seeds set bit 48, which hot seeds (47 bits) never do.
		return w.request(1<<48 | int64(c)<<40 | int64(i))
	}
	return w.request(w.hot[(r>>2)%hotSeeds])
}

func (w *serveMixed) request(seed int64) op {
	cfg := w.cfg
	cfg.Traffic.Seed = seed
	return op{
		key:     fmt.Sprintf("seed %d", seed),
		workers: 1,
		request: true,
		run: func(ctx context.Context, tr *tracer, parent uint64) ([]*orion.Result, error) {
			p := tr.begin(spanPoint, parent)
			if tr != nil {
				ctx = context.WithValue(ctx, traceKey{}, traceRef{tr, p.ID})
			}
			res, err := w.svc.pool.RunPoint(ctx, cfg, cfg.Traffic.Rate)
			tr.end(p)
			w.requests.Add(1)
			return one(res, err)
		},
		reference: func(ctx context.Context) ([]*orion.Result, error) {
			return one(orion.RunContext(ctx, referenceConfig(cfg)))
		},
	}
}

// epilogue re-runs the hot seeds, which the server simulated when the
// warm-up missed on them, in process through the core calls: the
// server's own simulations cannot be spanned from outside. Each must
// match the result the server returned.
func (w *serveMixed) epilogue() []op {
	ops := make([]op, len(w.hot))
	for k, seed := range w.hot {
		cfg := w.cfg
		cfg.Traffic.Seed = seed
		cfg.Sim.Workers = 1 // as the server runs it
		ops[k] = op{
			key:     fmt.Sprintf("seed %d", seed),
			span:    spanShadow,
			workers: 1,
			run: func(ctx context.Context, tr *tracer, parent uint64) ([]*orion.Result, error) {
				return one(runCore(ctx, cfg, tr, parent))
			},
		}
	}
	return ops
}

func (w *serveMixed) mark() {
	w.requests.Store(0)
	w.stats = w.svc.srv.Stats()
	w.poolStats = w.svc.pool.Stats()
}

func (w *serveMixed) layerCounts() map[string]float64 {
	s, ps := w.svc.srv.Stats(), w.svc.pool.Stats()
	hits := float64(s.Cache.Hits - w.stats.Cache.Hits)
	misses := float64(s.Cache.Misses - w.stats.Cache.Misses)
	m := map[string]float64{"serve.shed": float64(s.Shed - w.stats.Shed)}
	if hits+misses > 0 {
		m["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	if n := w.requests.Load(); n > 0 {
		m["remote.attempts_per_request"] = float64(ps.Attempts-w.poolStats.Attempts) / float64(n)
	}
	return m
}

// spanHeader carries the id of the client's round-trip span to the
// handler: it is the request id that links the two sides of a request.
const spanHeader = "X-Bench-Span"

type traceKey struct{}

// traceRef is the tracer and parent span a traced request carries in
// its context.
type traceRef struct {
	tr     *tracer
	parent uint64
}

// tracingTransport records a span for each round trip of a traced
// request, from sending it until its body is closed, and sends the
// span's id along.
type tracingTransport struct{ base http.RoundTripper }

func (t tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(traceKey{}).(traceRef)
	if !ok {
		return t.base.RoundTrip(req)
	}
	s := ref.tr.begin(spanRT, ref.parent)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		ref.tr.end(s)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { ref.tr.end(s) }}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// traceHandler records a handler span, under the client's round-trip
// span, for each request that carries a span id, noting whether the
// answer came from the result cache.
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	if tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		s := tr.begin(spanHandler, parent)
		rec := &bodyRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		var resp struct {
			Cached bool `json:"cached"`
		}
		s.Cached = json.Unmarshal(rec.body.Bytes(), &resp) == nil && resp.Cached
		tr.end(s)
	})
}

// bodyRecorder keeps a copy of what a handler writes.
type bodyRecorder struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (b *bodyRecorder) Write(p []byte) (int, error) {
	b.body.Write(p)
	return b.ResponseWriter.Write(p)
}
