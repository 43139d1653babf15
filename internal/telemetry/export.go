package telemetry

import "atcsim/internal/metrics"

// RegisterMetrics exposes the Health counters on a metrics registry as
// runner_* counter series. The registry reads the same atomics the engine
// bumps — there is no second copy of the counters, so Health and /metrics
// can never disagree.
func (h *Health) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("runner_runs_total", "Simulations by final outcome.",
		func() float64 { return float64(h.Runs.Load()) }, metrics.L("outcome", "ok"))
	reg.CounterFunc("runner_runs_total", "Simulations by final outcome.",
		func() float64 { return float64(h.Failures.Load()) }, metrics.L("outcome", "failed"))
	reg.CounterFunc("runner_panics_total", "Failed runs whose final failure was a captured panic.",
		func() float64 { return float64(h.Panics.Load()) })
	reg.CounterFunc("runner_timeouts_total", "Failed runs abandoned at their per-run deadline.",
		func() float64 { return float64(h.Timeouts.Load()) })
	reg.CounterFunc("runner_canceled_total", "Runs refused or abandoned on sweep cancellation.",
		func() float64 { return float64(h.Canceled.Load()) })
	reg.CounterFunc("runner_disk_hits_total", "Results served from the on-disk cache.",
		func() float64 { return float64(h.DiskHits.Load()) })
	reg.CounterFunc("runner_disk_errors_total", "Disk-cache read/write failures (never fatal).",
		func() float64 { return float64(h.DiskErrors.Load()) })
}
