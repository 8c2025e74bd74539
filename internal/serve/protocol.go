// Package serve is the simulation service layer: a hardened front-end
// that turns the orion engine into a long-running daemon answering
// JSON-line requests over stdio and the same protocol over HTTP.
//
// The engine underneath is crash-safe and deterministic; this package
// adds the robustness shapes a service needs to stay up under overload,
// cancellation, malformed input and restarts:
//
//   - admission control: requests run on a bounded worker pool behind a
//     bounded queue; beyond it they are shed immediately with a typed
//     orion.ErrOverloaded (HTTP 429 + Retry-After), never queued
//     unboundedly,
//   - per-request deadlines mapped onto RunContext/SweepContext,
//   - structured error responses carrying stable machine-readable codes
//     for the sentinel taxonomy (saturated, deadlock, invariant,
//     overloaded, backend_down, timeout, ...),
//   - a persistent result cache keyed by the config digest, with atomic
//     CRC-checked entries (a corrupt or torn entry is silently
//     recomputed — never served, never fatal) and singleflight dedup so
//     N identical in-flight requests run the simulation once,
//   - graceful drain: stop admitting, settle in-flight work against a
//     drain deadline, flush the cache index, exit clean.
package serve

import (
	"encoding/json"
	"fmt"
	"math"

	"orion"
	taxonomy "orion/internal/outcome"
)

// Request operations.
const (
	// OpRun runs one simulation of the embedded configuration.
	OpRun = "run"
	// OpSweep sweeps the embedded configuration over the request's rates.
	OpSweep = "sweep"
	// OpJob queries a previously submitted asynchronous job by id.
	OpJob = "job"
)

// Stable machine-readable response codes. A response with OK true has no
// code; every failure carries exactly one. The failure codes of a run
// or sweep are internal/outcome's, the one taxonomy the sweep journal
// also persists (imported as taxonomy, since this package has its own
// outcome type); bad_request, draining and not_found are the serving
// layer's own.
const (
	CodeBadRequest  = "bad_request"        // malformed request or invalid config
	CodeDraining    = "draining"           // server is shutting down; not admitting
	CodeNotFound    = "not_found"          // unknown job id
	CodeOverloaded  = taxonomy.Overloaded  // shed by admission control; retry later
	CodeSaturated   = taxonomy.Saturated   // orion.ErrSaturated
	CodeDeadlock    = taxonomy.Deadlock    // orion.ErrDeadlock
	CodeInvariant   = taxonomy.Invariant   // orion.ErrInvariant
	CodeBackendDown = taxonomy.BackendDown // orion.ErrBackendDown: every remote backend down
	CodeTimeout     = taxonomy.Timeout     // the request deadline expired mid-run
	CodeCancelled   = taxonomy.Cancelled   // the request or server was cancelled
	CodeInternal    = taxonomy.Internal    // unexpected failure
)

// Protocol bounds. A request line (or HTTP body) larger than
// MaxRequestBytes is rejected before parsing; a sweep of more than
// MaxSweepRates points is rejected at validation.
const (
	MaxRequestBytes = 1 << 20
	MaxSweepRates   = 4096
)

// Request is one protocol request: a JSON object on one line (stdio) or
// an HTTP POST body. Unknown fields are ignored for forward
// compatibility.
type Request struct {
	// ID is an opaque client correlation token echoed on the response.
	// Responses to concurrent stdio requests may arrive out of order;
	// the ID is how clients match them up.
	ID string `json:"id,omitempty"`
	// Op is the operation: "run", "sweep" or "job".
	Op string `json:"op"`
	// Config is the simulation configuration (the same JSON schema as
	// orion.LoadConfigJSON / cmd/orion -config). Required for run and
	// sweep.
	Config json.RawMessage `json:"config,omitempty"`
	// Rates are the injection rates of a sweep, each in [0,1].
	Rates []float64 `json:"rates,omitempty"`
	// DeadlineMs bounds the request's wall-clock time in milliseconds;
	// 0 inherits the server default. The run is cancelled at the
	// deadline and the response carries code "timeout".
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// NoCache skips the result-cache lookup (the computed result is
	// still stored), forcing a recompute.
	NoCache bool `json:"no_cache,omitempty"`
	// Async submits a sweep as a background job: the response returns a
	// job id immediately and the result is collected with op "job".
	Async bool `json:"async,omitempty"`
	// Job is the job id queried by op "job".
	Job string `json:"job,omitempty"`
}

// Response is one protocol response: a JSON object on one line (stdio)
// or an HTTP response body.
type Response struct {
	// ID echoes the request's correlation token.
	ID string `json:"id,omitempty"`
	// OK reports whether the operation produced its result. False means
	// Code and Error describe the failure (a sweep that settled with
	// failed points reports OK false while still carrying the partial
	// Results).
	OK bool `json:"ok"`
	// Cached marks a result served from the persistent result cache
	// without re-running the simulation.
	Cached bool `json:"cached,omitempty"`
	// Code is the stable machine-readable failure code (Code* above).
	Code string `json:"code,omitempty"`
	// Error is the human-readable failure detail.
	Error string `json:"error,omitempty"`
	// Faulted marks a simulation failure attributable to an injected
	// fault schedule (orion.ErrFaulted), alongside Code.
	Faulted bool `json:"faulted,omitempty"`
	// Digest is the cache key the request resolved to — the config
	// digest binding this result, for correlation with journals and
	// snapshots.
	Digest string `json:"digest,omitempty"`
	// Result is the run outcome (op "run").
	Result *orion.Result `json:"result,omitempty"`
	// Results are the sweep outcomes in rate order; failed points are
	// null with their codes in PointCodes (op "sweep").
	Results []*orion.Result `json:"results,omitempty"`
	// PointCodes are the per-point failure codes of a sweep, parallel
	// to Rates; "" for points that succeeded.
	PointCodes []string `json:"point_codes,omitempty"`
	// JobID identifies an asynchronously submitted job.
	JobID string `json:"job_id,omitempty"`
	// Status is the job state: "queued", "running" or "done".
	Status string `json:"status,omitempty"`
	// PointsDone / PointsTotal report a running sweep job's progress, so
	// pollers of a long async sweep can tell "stuck" from "slow".
	// PointsTotal is the sweep's rate count; PointsDone the points
	// settled so far. Both zero for run jobs and pre-progress responses.
	PointsDone  int `json:"points_done,omitempty"`
	PointsTotal int `json:"points_total,omitempty"`
}

// ParseRequest parses and validates one request line. It is the trust
// boundary for external input: arbitrary bytes either yield a validated
// request or a field-qualified error — never a panic (FuzzServeRequest
// holds it to that).
func ParseRequest(data []byte) (*Request, error) {
	if len(data) > MaxRequestBytes {
		return nil, fmt.Errorf("serve: request of %d bytes exceeds the %d-byte limit", len(data), MaxRequestBytes)
	}
	var req Request
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("serve: parsing request: %w", err)
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Validate checks the request's structure — the fast, shallow rejection
// before any configuration is resolved or any work admitted.
func (r *Request) Validate() error {
	switch r.Op {
	case OpRun, OpSweep:
		if len(r.Config) == 0 {
			return fmt.Errorf("serve: config: required for op %q", r.Op)
		}
	case OpJob:
		if r.Job == "" {
			return fmt.Errorf("serve: job: required for op %q", r.Op)
		}
		return nil
	case "":
		return fmt.Errorf("serve: op: required (run, sweep or job)")
	default:
		return fmt.Errorf("serve: op: unknown operation %q (want run, sweep or job)", r.Op)
	}
	if r.DeadlineMs < 0 {
		return fmt.Errorf("serve: deadline_ms: must not be negative, got %d", r.DeadlineMs)
	}
	switch r.Op {
	case OpRun:
		if len(r.Rates) > 0 {
			return fmt.Errorf("serve: rates: only valid for op \"sweep\"")
		}
	case OpSweep:
		if len(r.Rates) == 0 {
			return fmt.Errorf("serve: rates: at least one injection rate is required")
		}
		if len(r.Rates) > MaxSweepRates {
			return fmt.Errorf("serve: rates: %d rates exceed the %d-point limit", len(r.Rates), MaxSweepRates)
		}
		for i, rate := range r.Rates {
			if math.IsNaN(rate) || rate < 0 || rate > 1 {
				return fmt.Errorf("serve: rates[%d]: injection rate %g outside [0,1]", i, rate)
			}
		}
		if r.Async && r.Job != "" {
			return fmt.Errorf("serve: job: only valid for op \"job\"")
		}
	}
	return nil
}
