package telemetry

import "sync/atomic"

// Health aggregates sweep-level fault-tolerance counters: how many runs
// completed and how every failure was classified. It complements the
// per-run heartbeat stream with whole-campaign liveness. All fields are
// atomic, so the experiment engine updates them from any worker goroutine
// without locking; readers load them.
type Health struct {
	// Runs counts simulations that completed successfully.
	Runs atomic.Int64
	// Failures counts runs that failed.
	Failures atomic.Int64
	// Panics counts failed runs whose failure was a captured panic.
	Panics atomic.Int64
	// Timeouts counts failed runs abandoned at their per-run deadline.
	Timeouts atomic.Int64
	// Canceled counts runs refused or abandoned because the sweep's
	// context was canceled (SIGINT, sweep budget).
	Canceled atomic.Int64
	// DiskHits counts results served from the on-disk cache.
	DiskHits atomic.Int64
	// DiskErrors counts on-disk cache read/write failures (never fatal —
	// the result is recomputed or kept in memory only).
	DiskErrors atomic.Int64
	// Quarantined counts corrupt cache entries moved to ".bad" siblings.
	Quarantined atomic.Int64
}
