package simserver

import (
	"atcsim/internal/metrics"
)

// Request outcomes, the label values of simserver_requests_total.
const (
	outcomeOK         = "ok"
	outcomeShed       = "shed"
	outcomeDraining   = "draining"
	outcomeBadRequest = "bad_request"
	outcomeFailed     = "failed"
	outcomeCanceled   = "canceled"
)

// outcomes lists every label value, so all series exist from the first
// scrape.
var outcomes = []string{
	outcomeOK, outcomeShed, outcomeDraining,
	outcomeBadRequest, outcomeFailed, outcomeCanceled,
}

// serverMetrics holds the service envelope's instrumentation. Every series
// is registered eagerly at construction, so a scrape before the first
// request already shows the full family set.
type serverMetrics struct {
	requests     map[string]metrics.Counter
	dedupShared  metrics.Counter
	drainSeconds metrics.Gauge
	latency      *metrics.Histogram
	reg          *metrics.Registry
}

// newServerMetrics registers the simserver_* families on reg and wires the
// live gauges (inflight, queue depth) to the server's state.
func newServerMetrics(reg *metrics.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{
		requests: make(map[string]metrics.Counter, len(outcomes)),
		reg:      reg,
	}
	for _, o := range outcomes {
		m.requests[o] = reg.Counter("simserver_requests_total",
			"service requests by outcome", metrics.L("outcome", o))
	}
	// Only the shared source is the service's own: sheds, fresh computes
	// and disk hits are already requests_total{outcome="shed"},
	// runner_runs_total{outcome="ok"} and runner_disk_hits_total.
	m.dedupShared = reg.Counter("simserver_deduped_total",
		"requests served without a fresh compute, by source",
		metrics.L("source", "shared"))
	m.drainSeconds = reg.Gauge("simserver_drain_seconds",
		"wall time the last graceful drain took")
	m.latency = reg.NewHistogram("simserver_request_seconds",
		"latency of /v1/run requests answered 200",
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30})
	reg.GaugeFunc("simserver_inflight",
		"requests admitted and not yet answered",
		func() float64 { return float64(s.inflightN.Load()) })
	reg.GaugeFunc("simserver_admission_queue_depth",
		"requests waiting for an admission token",
		func() float64 { return float64(s.bucket.Waiters()) })
	return m
}

// MetricFamilies lists every simserver_* family the service registers — the
// contract the documentation-coverage test and the CI scrape job assert.
func MetricFamilies() []string {
	return []string{
		"simserver_requests_total",
		"simserver_deduped_total",
		"simserver_inflight",
		"simserver_admission_queue_depth",
		"simserver_drain_seconds",
		"simserver_request_seconds",
	}
}
