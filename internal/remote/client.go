package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"orion"
	"orion/internal/backoff"
	"orion/internal/outcome"
	"orion/internal/serve"
)

// maxResponseBytes bounds a backend response body; a run result for even
// a thousand-node fabric is well under this, so anything larger is a
// misbehaving peer, not data.
const maxResponseBytes = 4 << 20

// verdict classifies one dispatch attempt.
type verdict int

const (
	// verdictOK: the backend answered with a result.
	verdictOK verdict = iota
	// verdictTerminal: the backend answered with a deterministic
	// simulation outcome (saturated, deadlock, invariant) — final, no
	// retry, no fallback; a re-run anywhere would fail identically.
	verdictTerminal
	// verdictBusy: 429 — the backend is alive but shedding load; retry
	// after its Retry-After hint without penalising its breaker.
	verdictBusy
	// verdictFail: the network or the backend failed (transport error,
	// 5xx, truncated or undecodable body, remote timeout); counts
	// against the breaker and the retry budget.
	verdictFail
)

// RunPoint dispatches one sweep point to the backend pool. It is an
// orion.PointRunner: plug it into orion.SweepJournalOptions.Run or
// serve.Options.RunPoint and the existing claim/heartbeat/commit
// machinery executes points remotely.
func (p *Pool) RunPoint(ctx context.Context, cfg orion.Config, rate float64) (*orion.Result, error) {
	// Fold the point's rate into the config: the backend sees a complete
	// single-run request, and its digest-keyed cache gets a stable
	// per-point key.
	pcfg := cfg
	pcfg.Traffic.Rate = rate
	cfgJSON, err := orion.ConfigJSON(pcfg)
	if err != nil {
		return nil, fmt.Errorf("remote: encoding config for rate %g: %w", rate, err)
	}
	body, err := json.Marshal(&serve.Request{Config: cfgJSON, DeadlineMs: p.perTry.Milliseconds()})
	if err != nil {
		return nil, fmt.Errorf("remote: encoding request for rate %g: %w", rate, err)
	}

	start := backendOffset(rate, len(p.backends))
	var lastErr error
	allDown := false
	for attempt := 1; attempt <= p.opts.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b := p.pick(start + attempt - 1)
		if b == nil {
			// Every breaker open with no probe due: the network is not
			// going to answer this point.
			p.count(func(s *Stats) { s.AllDown++ })
			allDown = true
			break
		}
		res, retryAfter, v, derr := p.dispatch(ctx, b, body)
		switch v {
		case verdictOK:
			b.breaker.succeed()
			p.count(func(s *Stats) { s.Attempts++; s.Remote++ })
			return res, nil
		case verdictTerminal:
			b.breaker.succeed()
			p.count(func(s *Stats) { s.Attempts++; s.Remote++ })
			return nil, derr
		case verdictBusy:
			// The backend answered — it is alive, just shedding. Not a
			// breaker failure, but the attempt is spent.
			b.breaker.succeed()
			p.count(func(s *Stats) { s.Attempts++; s.Busy++ })
			lastErr = derr
			if !backoff.Sleep(ctx, p.retryDelay(attempt, rate, retryAfter)) {
				return nil, ctx.Err()
			}
		default: // verdictFail
			if ctx.Err() != nil {
				// The failure is our own cancellation, not the backend's:
				// don't poison its breaker on the way out.
				b.breaker.release()
				return nil, ctx.Err()
			}
			if b.breaker.fail() {
				p.count(func(s *Stats) { s.Trips++ })
			}
			p.count(func(s *Stats) { s.Attempts++; s.Failures++ })
			lastErr = derr
			if attempt < p.opts.Retries && !backoff.Sleep(ctx, p.retryDelay(attempt, rate, 0)) {
				return nil, ctx.Err()
			}
		}
	}

	// The network is out of answers: retry budget spent, or every
	// breaker open. Degrade to local execution so the sweep still
	// completes — identically, because point runs are deterministic —
	// unless the caller opted out.
	if p.opts.NoLocalFallback {
		if allDown {
			if lastErr == nil {
				return nil, fmt.Errorf("remote: rate %g: %w: %w (local fallback disabled)",
					rate, orion.ErrRemote, orion.ErrBackendDown)
			}
			return nil, fmt.Errorf("remote: rate %g: %w: %w (local fallback disabled); last failure: %w",
				rate, orion.ErrRemote, orion.ErrBackendDown, lastErr)
		}
		return nil, fmt.Errorf("remote: rate %g: %w after %d attempts (local fallback disabled); last failure: %w",
			rate, orion.ErrRemote, p.opts.Retries, lastErr)
	}
	p.count(func(s *Stats) { s.Local++ })
	return p.local(ctx, cfg, rate)
}

// retryDelay is the pause before the next attempt: the shared backoff
// schedule keyed by the point's rate, raised to a 429's Retry-After hint
// when larger, and capped at RetryMax either way.
func (p *Pool) retryDelay(attempt int, rate float64, retryAfter time.Duration) time.Duration {
	d := backoff.Delay(attempt, p.opts.RetryBase, p.opts.RetryMax, math.Float64bits(rate))
	return min(max(d, retryAfter), p.opts.RetryMax)
}

// dispatch POSTs one point to one backend and classifies the outcome.
func (p *Pool) dispatch(ctx context.Context, b *backend, body []byte) (*orion.Result, time.Duration, verdict, error) {
	tryCtx, cancel := context.WithTimeout(ctx, p.perTry)
	defer cancel()
	req, err := http.NewRequestWithContext(tryCtx, http.MethodPost, b.url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, 0, verdictFail, fmt.Errorf("remote: %s: building request: %w", b.url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := p.client.Do(req)
	if err != nil {
		return nil, 0, verdictFail, fmt.Errorf("remote: %s: %w", b.url, err)
	}
	defer httpResp.Body.Close()

	if httpResp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, io.LimitReader(httpResp.Body, maxResponseBytes))
		return nil, parseRetryAfter(httpResp.Header.Get("Retry-After")), verdictBusy,
			fmt.Errorf("remote: %s: overloaded (429)", b.url)
	}

	raw, err := io.ReadAll(io.LimitReader(httpResp.Body, maxResponseBytes+1))
	if err != nil {
		// Truncated body, connection reset mid-read, or the per-try
		// deadline expiring during the read.
		return nil, 0, verdictFail, fmt.Errorf("remote: %s: reading response: %w", b.url, err)
	}
	if len(raw) > maxResponseBytes {
		return nil, 0, verdictFail, fmt.Errorf("remote: %s: response exceeds %d bytes", b.url, maxResponseBytes)
	}
	var resp serve.Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, 0, verdictFail, fmt.Errorf("remote: %s: undecodable response (status %d): %v", b.url, httpResp.StatusCode, err)
	}

	if resp.OK {
		if resp.Result == nil {
			return nil, 0, verdictFail, fmt.Errorf("remote: %s: ok response with no result", b.url)
		}
		return resp.Result, 0, verdictOK, nil
	}
	if outcome.Final(resp.Code) {
		// Rebuilt with the sentinels a local run raises, so errors.Is
		// behaves — and the queue journal classifies — exactly as if the
		// point had run here.
		return nil, 0, verdictTerminal, fmt.Errorf("remote: backend reports: %w",
			outcome.Err(resp.Code, resp.Faulted, resp.Error))
	}
	// timeout, cancelled, draining, bad_request, internal, or a code from
	// a future backend version: the simulation has no deterministic
	// answer yet — retry elsewhere or fall back.
	return nil, 0, verdictFail, fmt.Errorf("remote: %s: backend failed with code %q: %s", b.url, resp.Code, resp.Error)
}

// parseRetryAfter reads a Retry-After header's delay-seconds form; 0
// when absent or malformed (HTTP-date form is deliberately ignored — our
// backends never send it).
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// count applies a mutation to the pool's stats under its lock.
func (p *Pool) count(f func(*Stats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}
