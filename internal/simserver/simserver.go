// Package simserver turns the experiment engine into a long-lived sweep
// service: an HTTP API that accepts single-run simulation requests keyed by
// the engine's content-addressed run keys, serves repeated requests from the
// checksummed on-disk store, single-flights concurrent identical requests
// onto one execution, and runs misses on the bounded worker pool under the
// engine's deadline, panic-containment and fault machinery (one attempt per
// run).
//
// The service wraps that engine in a resilience envelope:
//
//   - Admission control: a token bucket bounds the accepted request rate.
//     Requests beyond the burst wait in a bounded queue; once the queue is
//     full, requests are shed with 429 and a Retry-After hint instead of
//     piling up until the process falls over.
//   - Per-kind circuit breakers: permanent run failures are tracked per
//     request kind (enhancement/workload pair) over a sliding window; a kind
//     that keeps failing is cut off with 503 until a cooldown elapses, then
//     probed half-open before full traffic resumes. One poisoned
//     configuration cannot consume the whole pool.
//   - Deadlines: each request's timeout propagates through context into the
//     engine's bounded execution; client disconnects release the response
//     without abandoning the shared computation (other waiters may be
//     coalesced onto it).
//   - Liveness vs readiness: /healthz answers 200 for as long as the process
//     can serve at all; /readyz flips to 503 the moment a drain begins, so a
//     load balancer stops routing new work while in-flight runs finish.
//   - Graceful drain: Drain stops admitting, waits for in-flight requests
//     (bounded by its context, whose expiry cancels the sweep context),
//     flushes the flight recorder, and leaves the disk cache consistent —
//     a kill at any point during the drain leaves no torn entries, because
//     every store is fsync+rename crash-safe.
//
// Every decision the envelope makes is observable through the simserver_*
// metric families on /metrics (see MetricFamilies), the live /runs table and
// the /flightrecorder dump. See docs/SERVICE.md for the API contract.
package simserver

import (
	"fmt"
	"time"

	"atcsim/internal/experiments"
	"atcsim/internal/faultinject"
	"atcsim/internal/metrics"
)

// Config assembles a Server. The zero value of every tunable selects a
// production-reasonable default (see the field comments).
type Config struct {
	// Scale is the simulation scale every request runs at. Zero value
	// selects experiments.Full().
	Scale experiments.Scale
	// Jobs bounds concurrent simulations (the worker pool size). Zero or
	// negative selects runtime.NumCPU().
	Jobs int
	// CacheDir, when non-empty, enables the crash-safe on-disk result store;
	// warm restarts serve repeated requests from it byte-identically.
	CacheDir string
	// RunTimeout, when positive, is the default per-run deadline; a request
	// may override it downward or upward via timeout_ms.
	RunTimeout time.Duration
	// Faults, when non-nil, injects deterministic faults at the engine's
	// hook points — the chaos-testing seam.
	Faults *faultinject.Plan
	// Recorder, when non-nil, receives structured flight-recorder events and
	// is dumped on permanent failures and at the end of a drain.
	Recorder *metrics.FlightRecorder

	// AdmitRate is the steady-state accepted request rate in requests per
	// second. Zero or negative selects 200.
	AdmitRate float64
	// AdmitBurst is the token-bucket capacity — how many requests can be
	// admitted back-to-back before rate limiting engages. Zero or negative
	// selects 64.
	AdmitBurst int
	// AdmitQueue bounds how many requests may wait for a token before
	// further requests are shed with 429. Zero or negative selects 128.
	AdmitQueue int

	// BreakerWindow is the sliding window of per-kind run outcomes the
	// breaker inspects. Zero or negative selects 8.
	BreakerWindow int
	// BreakerThreshold is how many failures within the window trip the
	// breaker open. Zero or negative selects 5.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before
	// half-open probing. Zero or negative selects 5s.
	BreakerCooldown time.Duration
}

// withDefaults resolves every zero tunable to its documented default.
func (c Config) withDefaults() Config {
	if len(c.Scale.Workloads) == 0 && c.Scale.TraceLen == 0 {
		c.Scale = experiments.Full()
	}
	if c.AdmitRate <= 0 {
		c.AdmitRate = 200
	}
	if c.AdmitBurst <= 0 {
		c.AdmitBurst = 64
	}
	if c.AdmitQueue <= 0 {
		c.AdmitQueue = 128
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 8
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return c
}

// New builds a Server: the experiment engine (worker pool, caches,
// deadlines) plus the service envelope (admission, breakers, metrics). It
// fails only when the cache directory cannot be created.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := metrics.New()
	r, err := experiments.NewRunnerWith(cfg.Scale, experiments.Options{
		Jobs:       cfg.Jobs,
		CacheDir:   cfg.CacheDir,
		RunTimeout: cfg.RunTimeout,
		Faults:     cfg.Faults,
		Metrics:    reg,
		Recorder:   cfg.Recorder,
	})
	if err != nil {
		return nil, fmt.Errorf("simserver: %w", err)
	}
	s := &Server{
		cfg:    cfg,
		runner: r,
		reg:    reg,
		bucket: newBucket(cfg.AdmitRate, cfg.AdmitBurst, cfg.AdmitQueue),
		breakers: newBreakerSet(breakerConfig{
			window:    cfg.BreakerWindow,
			threshold: cfg.BreakerThreshold,
			cooldown:  cfg.BreakerCooldown,
		}),
	}
	s.met = newServerMetrics(reg, s)
	return s, nil
}
