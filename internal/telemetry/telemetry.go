// Package telemetry is the simulator's observability layer: a sampled
// request-lifecycle tracer that emits Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing), an interval heartbeat that streams
// time-series statistics as CSV or JSONL, and the experiment runner's
// health counters.
//
// Every entry point is nil-safe: components hold a possibly-nil *Tracer and
// guard each hook site with Active() (one inlinable nil-and-bool check), so
// the telemetry-disabled hot path stays allocation-free and within benchmark
// noise of an uninstrumented build. The heartbeat never sees the simulator:
// it numbers and writes the rows a tick consumer (system.HeartbeatTick)
// hands it. Telemetry is strictly an observer — it never changes simulated
// timing, so enabling it is bit-identical to running without it.
package telemetry
