package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// The HTTP front-end. It speaks the same Request/Response protocol as
// the stdio loop, with the operation selected by the route instead of
// the "op" field:
//
//	POST /v1/run       run one simulation (body: Request without op)
//	POST /v1/sweep     sweep; honours "async" for job submission (202)
//	GET  /v1/jobs/{id} poll an async job
//	GET  /healthz      liveness: 200 while the process serves
//	GET  /readyz       readiness: 200 admitting, 503 draining
//
// Transport- and admission-level failures map to HTTP statuses
// (bad_request 400, not_found 404, overloaded 429 + Retry-After,
// draining 503, internal 500); simulation outcomes — saturated,
// deadlock, invariant, timeout, cancelled — are 200 with ok:false and
// the code in the body, because the service answered the question that
// was asked.

// maxRetryAfterSeconds caps the 429 backoff hint: past a minute the
// number stops being a schedule and starts being a lie.
const maxRetryAfterSeconds = 60

// retryAfterHint scales the 429 backoff hint with actual pool pressure:
// 1 second base plus roughly how many queue "generations" of work sit
// ahead of a retrying client (queued submissions per worker), capped at
// maxRetryAfterSeconds. An idle-but-bursted pool says "1"; a deeply
// backed-up one tells clients to stay away longer instead of inviting a
// synchronized retry storm.
func (s *Server) retryAfterHint() int {
	queued, workers := s.pool.pressure()
	if workers <= 0 {
		workers = 1
	}
	secs := 1 + (queued+workers-1)/workers
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return secs
}

// Handler returns the HTTP front-end for the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		s.serveOp(w, r, OpRun)
	})
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		s.serveOp(w, r, OpSweep)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		resp := s.Handle(r.Context(), &Request{Op: OpJob, Job: r.PathValue("id")})
		s.writeResponse(w, resp)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// serveOp decodes a request body, forces the route's operation, and
// relays the outcome.
func (s *Server) serveOp(w http.ResponseWriter, r *http.Request, op string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		s.writeResponse(w, failResp("", CodeBadRequest,
			fmt.Sprintf("serve: reading request body: %v", err)))
		return
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeResponse(w, failResp("", CodeBadRequest,
			fmt.Sprintf("serve: parsing request: %v", err)))
		return
	}
	req.Op = op
	s.writeResponse(w, s.Handle(r.Context(), &req))
}

// writeResponse maps a protocol response onto the wire: status code,
// retry hint, JSON body.
func (s *Server) writeResponse(w http.ResponseWriter, resp *Response) {
	status := http.StatusOK
	switch resp.Code {
	case CodeBadRequest:
		status = http.StatusBadRequest
	case CodeNotFound:
		status = http.StatusNotFound
	case CodeOverloaded:
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterHint()))
	case CodeDraining:
		status = http.StatusServiceUnavailable
	case CodeInternal, CodeBackendDown:
		status = http.StatusInternalServerError
	}
	if resp.Code == "" && resp.JobID != "" && resp.Status == JobQueued {
		status = http.StatusAccepted
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(resp)
}
