// Package server implements the egdserve daemon: a multi-tenant HTTP/JSON
// job service over the simulation engines. Tenants POST sim.Config-shaped
// specs, a bounded worker pool runs them on the engine at each job's rank
// count, progress streams out as Server-Sent Events, and pause/resume/
// cancel ride on the engine's Control hook and checkpoint machinery — a
// paused job resumes from its snapshot bit-identically (pure strategies).
// A perfmodel-driven admission controller prices every submission and
// rejects or defers work that exceeds the configured budgets; per-tenant
// quotas and token-bucket rate limits keep one tenant from starving the
// rest. The daemon's own counters and every finished run's egd_* catalog
// are served in Prometheus text format at /metrics.
//
// With a data directory configured the job table is durable: every
// lifecycle transition is journaled to an fsync'd append-only JSONL
// write-ahead log and resume snapshots go to per-job checkpoint files, so
// a daemon killed mid-job recovers on the next boot and finishes every
// interrupted trajectory bit-identically (see docs/SERVICE.md).
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options configures a Server. Zero values select workable defaults.
type Options struct {
	// Workers is the number of concurrent simulation workers (0 selects 2).
	Workers int
	// QueueDepth bounds the pending-job queue (0 selects 64).
	QueueDepth int
	// MaxJobSeconds rejects any single job whose modelled cost exceeds this
	// ceiling with 422 (0 = no per-job ceiling).
	MaxJobSeconds float64
	// MaxOutstandingSeconds bounds the modelled cost of all non-terminal
	// jobs; submissions over it get 429 + Retry-After (0 = unbounded).
	MaxOutstandingSeconds float64
	// Tenant bounds each tenant's concurrency and submission rate.
	Tenant TenantLimits
	// Cost prices submissions; the zero value uses the deterministic paper
	// calibration.
	Cost CostModel
	// Now overrides the rate limiter's clock (tests); nil uses wall time.
	Now func() int64
	// DataDir enables the durable job store: a write-ahead journal of every
	// lifecycle transition plus per-job checkpoint files under this
	// directory. A daemon restarted over the same DataDir replays the
	// journal, re-queues interrupted jobs, and finishes each trajectory
	// bit-identically. Empty keeps the ephemeral in-memory store.
	DataDir string
	// CheckpointEvery is the durable-mode snapshot cadence (generations)
	// applied to jobs whose spec sets none (0 selects 250). Ignored without
	// DataDir.
	CheckpointEvery int
	// SSEWriteTimeout bounds each Server-Sent-Event write; a client that
	// cannot drain an event within it is disconnected (it reconnects with
	// Last-Event-ID and replays what it missed) instead of pinning the
	// daemon's connection. 0 selects 30s; negative disables the deadline.
	SSEWriteTimeout time.Duration
	// Log receives operational messages (recovery summary, journal errors);
	// nil discards them.
	Log func(format string, args ...any)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return 2
}

func (o Options) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return 64
}

func (o Options) checkpointEvery() int {
	if o.CheckpointEvery > 0 {
		return o.CheckpointEvery
	}
	return 250
}

func (o Options) sseWriteTimeout() time.Duration {
	if o.SSEWriteTimeout == 0 {
		return 30 * time.Second
	}
	if o.SSEWriteTimeout < 0 {
		return 0
	}
	return o.SSEWriteTimeout
}

func (o Options) logf() func(format string, args ...any) {
	if o.Log != nil {
		return o.Log
	}
	return func(string, ...any) {}
}

// Server is the HTTP front end over a job Manager.
type Server struct {
	mgr        *Manager
	reg        *metrics.Registry
	mux        *http.ServeMux
	sseTimeout time.Duration
}

// New builds a server and starts its worker pool. With Options.DataDir set
// it opens the durable job store first, replaying the journal and
// re-queuing interrupted jobs; an unopenable store is the only error.
func New(opts Options) (*Server, error) {
	reg := metrics.NewRegistry()
	mgr, err := newManager(opts, reg)
	if err != nil {
		return nil, err
	}
	s := &Server{reg: reg, mgr: mgr, mux: http.NewServeMux(), sseTimeout: opts.sseWriteTimeout()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /api/v1/jobs/{id}/pause", s.handleTransition(s.mgr.Pause))
	s.mux.HandleFunc("POST /api/v1/jobs/{id}/resume", s.handleTransition(s.mgr.Resume))
	s.mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleTransition(s.mgr.Cancel))
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels running jobs and stops the worker pool.
func (s *Server) Close() { s.mgr.Close() }

// Drain parks the service for restart: running jobs stop at the next
// generation boundary with durable snapshots and are journaled queued, so
// the next boot resumes them bit-identically. See Manager.Drain.
func (s *Server) Drain(timeout time.Duration) error { return s.mgr.Drain(timeout) }

// tenantOf extracts the caller's tenant from the X-Tenant header; absent
// means the shared default tenant.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-write is not actionable
}

// shutdownRetryAfter is the Retry-After (seconds) sent with a 503 during
// shutdown: the restart time is not known to the dying process, so this is
// only a floor that keeps clients from hammering the closing listener.
const shutdownRetryAfter = "5"

// writeError maps the manager's typed errors onto HTTP semantics: 400 for
// malformed specs, 409 for invalid transitions, 422/429 (+ Retry-After and
// the modelled cost) for admission, 429 (+ Retry-After) for quotas, 503
// (+ Retry-After) once shutdown has begun.
func writeError(w http.ResponseWriter, err error) {
	var se *specError
	var ste *stateError
	var ae *admissionError
	var qe *quotaError
	switch {
	case errors.As(err, &se):
		writeJSON(w, http.StatusBadRequest, map[string]string{"reason": "invalid_spec", "detail": se.Detail})
	case errors.As(err, &ste):
		writeJSON(w, http.StatusConflict, map[string]string{"reason": "invalid_state", "detail": ste.Detail})
	case errors.As(err, &ae):
		status := ae.Status
		if status == 0 {
			status = http.StatusTooManyRequests
		}
		if ae.RetryAfterSeconds > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(ae.RetryAfterSeconds))
		}
		writeJSON(w, status, ae)
	case errors.As(err, &qe):
		if qe.RetryAfterSeconds > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(qe.RetryAfterSeconds))
		}
		writeJSON(w, http.StatusTooManyRequests, qe)
	case errors.Is(err, errShuttingDown):
		w.Header().Set("Retry-After", shutdownRetryAfter)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"reason": "shutting_down", "detail": "the server is draining for shutdown; resubmit after it restarts"})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"reason": "internal", "detail": err.Error()})
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	metrics.WritePrometheus(w, s.reg.Snapshot()) //nolint:errcheck // client gone mid-write
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := parseSpec(r.Body)
	if err != nil {
		writeError(w, &specError{Detail: err.Error()})
		return
	}
	job, err := s.mgr.Submit(tenantOf(r), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.list()})
}

// jobFor resolves the {id} path parameter, writing the 404 itself when the
// job does not exist.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"reason": "unknown_job", "detail": r.PathValue("id")})
	}
	return job, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, job.status())
	}
}

func (s *Server) handleTransition(f func(*Job) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.jobFor(w, r)
		if !ok {
			return
		}
		if err := f(job); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, job.status())
	}
}

// jobResult is the wire form of a finished run. ElapsedSeconds is the only
// non-deterministic field; parity checks compare everything else.
type jobResult struct {
	ID             string        `json:"id"`
	FinalFitness   []float64     `json:"final_fitness"`
	Fingerprints   []string      `json:"fingerprints"`
	Counters       sim.Counters  `json:"counters"`
	MeanFitness    []stats.Point `json:"mean_fitness"`
	Cooperation    []stats.Point `json:"cooperation"`
	Ranks          int           `json:"ranks"`
	Restarts       int           `json:"restarts"`
	ElapsedSeconds float64       `json:"elapsed_seconds"`
}

// wireResult is a finished run's /result document. settle encodes it once;
// the bytes are retained, served and (in durable mode) journaled, so a
// restarted daemon serves done jobs' results without re-running them.
func wireResult(id string, res *sim.Result) *jobResult {
	out := &jobResult{
		ID:             id,
		FinalFitness:   res.FinalFitness,
		Fingerprints:   make([]string, len(res.Final)),
		Counters:       res.Counters,
		MeanFitness:    res.MeanFitness.Points(),
		Cooperation:    res.Cooperation.Points(),
		Ranks:          res.Ranks,
		Restarts:       res.Restarts,
		ElapsedSeconds: res.Elapsed.Seconds(),
	}
	for i, st := range res.Final {
		out.Fingerprints[i] = fmt.Sprintf("%016x", st.Fingerprint())
	}
	return out
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	job.mu.Lock()
	state, raw := job.state, job.result
	job.mu.Unlock()
	if state != StateDone || len(raw) == 0 {
		writeError(w, &stateError{Detail: fmt.Sprintf("job %s is %s; results exist only for done jobs", job.ID, state)})
		return
	}
	// The bytes writeJSON's indenting encoder would write for the document.
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		writeError(w, err)
		return
	}
	buf.WriteByte('\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes()) //nolint:errcheck // client gone mid-write is not actionable
}

// handleEvents streams a job's timeline as Server-Sent Events: everything
// after the client's Last-Event-ID (0 when absent), at the client's pace,
// until the job settles or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	if _, canFlush := w.(http.Flusher); !canFlush {
		writeJSON(w, http.StatusNotImplemented, map[string]string{"reason": "no_streaming", "detail": "response writer cannot stream"})
		return
	}
	afterID := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			afterID = n
		}
	}
	// An ID from the future (nothing this hub issued) reads from the
	// timeline's current end.
	afterID = min(afterID, job.hub.highWater())

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Each event gets its own write deadline: a client that stops reading
	// stalls the TCP send buffer, the deadline expires, the write fails,
	// and the stream ends — instead of this handler hanging on one stalled
	// peer forever. The client reconnects with Last-Event-ID and reads on
	// from there. Each batch — every event the timeline holds past the
	// cursor — is flushed once, under its last event's deadline.
	rc := http.NewResponseController(w)
	writeSSE := func(ev sseEvent) bool {
		if s.sseTimeout > 0 {
			deadline := time.Now().Add(s.sseTimeout) //egdlint:allow determinism SSE write deadline; never feeds a trajectory
			rc.SetWriteDeadline(deadline)            //nolint:errcheck // unsupported writers (test recorders) just skip the deadline
		}
		_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Kind, ev.Data)
		return err == nil
	}
	for {
		events, wake, closed := job.hub.after(afterID)
		for _, ev := range events {
			if !writeSSE(ev) {
				return
			}
			afterID = ev.ID
		}
		if len(events) > 0 && rc.Flush() != nil {
			return
		}
		if closed {
			return // job settled and its whole timeline is written
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}
