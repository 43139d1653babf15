package system

// Timing model names for Config.Timing. The analytic engine is the original
// latency-composition hierarchy: Access recurses synchronously and returns a
// closed-form ready cycle. The queued engine interposes a cache.Queued
// wrapper per level — bounded RQ/WQ/PQ/VAPQ deques advanced one cycle per
// step, with idle cycles skipped up to the next possible event, MSHR
// occupancy gating, write-forwarding and prefetch merging — and surfaces
// the backpressure counters in Result.Queues, the report's per-level
// "queues" lines and the cache_queue_* metric families.
const (
	TimingAnalytic = "analytic"
	TimingQueued   = "queued"
)

// TimingModels lists the registered timing models.
func TimingModels() []string { return []string{TimingAnalytic, TimingQueued} }

// TimingRegistered reports whether name selects a timing model. The empty
// string resolves to the analytic engine and keeps configuration JSON — and
// therefore experiment run keys and golden reports — byte-identical to
// builds that predate the switch.
func TimingRegistered(name string) bool {
	switch name {
	case "", TimingAnalytic, TimingQueued:
		return true
	}
	return false
}

// queuedTiming reports whether the config selects the queued engine.
func (c *Config) queuedTiming() bool { return c.Timing == TimingQueued }
