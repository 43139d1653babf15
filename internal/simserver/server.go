package simserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"atcsim/internal/experiments"
	"atcsim/internal/metrics"
	"atcsim/internal/system"
)

// Server is the sweep service: the HTTP surface plus the resilience
// envelope around one experiment engine. Construct it with New; serve
// Handler() on any http.Server; stop it with Drain.
type Server struct {
	cfg    Config
	runner *experiments.Runner
	reg    *metrics.Registry
	bucket *bucket
	met    *serverMetrics

	draining  atomic.Bool
	inflightN atomic.Int64
	inflight  sync.WaitGroup
	drainOnce sync.Once
	// admitMu orders inflight.Add against Drain's inflight.Wait: the drain
	// flag flips under this mutex, so a request that slipped past the entry
	// gate (e.g. while queued for an admission token) can never Add after
	// the drain has started waiting.
	admitMu sync.Mutex
}

// beginRequest registers an admitted request with the drain barrier,
// refusing when a drain has begun.
func (s *Server) beginRequest() bool {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Routes lists every path the service serves — the contract the
// documentation-coverage test asserts against docs/SERVICE.md.
func Routes() []string {
	return []string{
		"/v1/run",
		"/v1/key",
		"/healthz",
		"/readyz",
		"/metrics",
		"/runs",
		"/flightrecorder",
	}
}

// Runner exposes the underlying experiment engine (compute/dedup counters,
// quarantine stats) for tests and operators.
func (s *Server) Runner() *experiments.Runner { return s.runner }

// Draining reports whether a drain has begun (readiness is the inverse).
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the service mux:
//
//	POST /v1/run    execute (or fetch) one simulation; see RunRequest
//	POST /v1/key    resolve a request to its run key without executing
//	GET  /healthz   liveness: 200 while the process can serve at all
//	GET  /readyz    readiness: 200 while accepting work, 503 while draining
//	GET  /metrics   OpenMetrics exposition (simserver_* + engine families)
//	GET  /runs      live JSON of per-run-key state
//	GET  /flightrecorder  canonical JSONL of recent structured events
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/key", s.handleKey)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"draining"}`)
			return
		}
		fmt.Fprintln(w, `{"status":"ready"}`)
	})
	diag := (&metrics.Server{
		Registry: s.reg,
		Runs:     s.runner.RunsTable(),
		Recorder: s.cfg.Recorder,
	}).Handler()
	mux.Handle("/metrics", diag)
	mux.Handle("/runs", diag)
	mux.Handle("/flightrecorder", diag)
	return mux
}

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// writeError renders an error response, attaching a Retry-After header
// (whole seconds, rounded up) when the failure carries a retry hint.
func writeError(w http.ResponseWriter, status int, retryAfter time.Duration, err error) {
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// maxRequestBytes bounds a request body. A RunRequest is six short fields,
// a few hundred bytes at most.
const maxRequestBytes = 4 << 10

// readRequest decodes exactly one JSON object into req: unknown fields and
// anything but whitespace after the object are errors.
func readRequest(body io.Reader, req *RunRequest) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return err
		}
		return errors.New("trailing data after the request object")
	}
	return nil
}

// decode parses and validates the request body shared by /v1/run and
// /v1/key, recording the bad_request outcome on failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request) (*RunRequest, bool) {
	if r.Method != http.MethodPost {
		s.met.requests[outcomeBadRequest].Inc()
		writeError(w, http.StatusMethodNotAllowed, 0, errors.New("POST only"))
		return nil, false
	}
	var req RunRequest
	if err := readRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes), &req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.met.requests[outcomeBadRequest].Inc()
		writeError(w, status, 0, fmt.Errorf("decode request: %w", err))
		return nil, false
	}
	if _, err := req.validate(); err != nil {
		s.met.requests[outcomeBadRequest].Inc()
		writeError(w, http.StatusBadRequest, 0, err)
		return nil, false
	}
	return &req, true
}

// handleKey resolves a request to its content-addressed run key without
// executing anything — clients can pre-compute cache identities and dedup
// requests on their side.
func (s *Server) handleKey(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decode(w, r)
	if !ok {
		return
	}
	level, _ := req.validate()
	key, err := s.runner.KeyFor(req.Workload, req.Seed, req.mod(level))
	if err != nil {
		s.met.requests[outcomeBadRequest].Inc()
		writeError(w, http.StatusBadRequest, 0, err)
		return
	}
	s.met.requests[outcomeOK].Inc()
	writeJSON(w, http.StatusOK, RunResponse{Key: key.Hash(), Kind: req.kind()})
}

// runOutcome carries a finished run across the handler's wait boundary.
type runOutcome struct {
	resp RunResponse
	err  error
}

// handleRun is the service core: drain gate, admission, then one governed
// run on the engine. The computation runs under the service's lifetime
// context — a client disconnect abandons the response, never the run,
// because concurrent identical requests may be coalesced onto it.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.met.requests[outcomeDraining].Inc()
		writeError(w, http.StatusServiceUnavailable, time.Second, errors.New("draining"))
		return
	}
	req, ok := s.decode(w, r)
	if !ok {
		return
	}
	level, _ := req.validate()
	if err := s.bucket.Acquire(r.Context()); err != nil {
		var shed *ShedError
		if errors.As(err, &shed) {
			s.met.requests[outcomeShed].Inc()
			writeError(w, http.StatusTooManyRequests, shed.RetryAfter, err)
			return
		}
		s.met.requests[outcomeCanceled].Inc()
		return // client gone while queued; nothing to write to
	}

	if !s.beginRequest() {
		s.met.requests[outcomeDraining].Inc()
		writeError(w, http.StatusServiceUnavailable, time.Second, errors.New("draining"))
		return
	}
	start := time.Now()
	s.inflightN.Add(1)
	done := make(chan runOutcome, 1)
	go func() {
		defer s.inflight.Done()
		defer s.inflightN.Add(-1)
		done <- s.execute(req, level)
	}()
	select {
	case o := <-done:
		if o.err != nil {
			s.met.requests[outcomeFailed].Inc()
			writeError(w, http.StatusInternalServerError, 0, o.err)
			return
		}
		s.met.latency.Observe(time.Since(start).Seconds())
		s.met.requests[outcomeOK].Inc()
		writeJSON(w, http.StatusOK, o.resp)
	case <-r.Context().Done():
		// The client gave up; the run continues for other waiters and the
		// disk cache. The response writer is dead, so only count it.
		s.met.requests[outcomeCanceled].Inc()
	}
}

// execute performs one admitted run. A failed run's *RunError is memoized
// by the engine, so repeats of a failed key answer the same failure
// without running again.
func (s *Server) execute(req *RunRequest, level system.Enhancement) runOutcome {
	key, err := s.runner.KeyFor(req.Workload, req.Seed, req.mod(level))
	if err != nil {
		return runOutcome{err: err}
	}
	res, src, err := s.runner.RunOne(nil, req.label(), req.Workload, req.Seed,
		req.timeout(), req.mod(level))
	if err != nil {
		return runOutcome{err: err}
	}
	if src == experiments.SourceShared {
		s.met.dedupShared.Inc()
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return runOutcome{err: fmt.Errorf("encode result: %w", err)}
	}
	return runOutcome{resp: RunResponse{
		Key:    key.Hash(),
		Kind:   req.kind(),
		Source: string(src),
		Result: raw,
	}}
}

// Drain gracefully stops the service: new work is refused (readiness flips
// to 503, /v1/run answers 503 draining), in-flight requests finish — bounded
// by ctx, whose end cancels the engine so abandoned runs fail fast — the
// drain duration lands in simserver_drain_seconds, and the flight recorder
// is flushed to its sink. Idempotent; concurrent calls share one drain.
func (s *Server) Drain(ctx context.Context) {
	s.drainOnce.Do(func() {
		s.admitMu.Lock()
		s.draining.Store(true)
		s.admitMu.Unlock()
		start := time.Now()
		finished := make(chan struct{})
		go func() {
			s.inflight.Wait()
			close(finished)
		}()
		select {
		case <-finished:
		case <-ctx.Done():
			s.runner.Cancel()
			<-finished
		}
		s.met.drainSeconds.Set(time.Since(start).Seconds())
		// Disk stores are fsync+rename crash-safe, so there is nothing to
		// flush for the cache; only the diagnostics need a final dump.
		_ = s.cfg.Recorder.DumpToSink()
	})
}
