// Package experiments regenerates every table and figure of the paper's
// evaluation, plus this repository's ablations. Each experiment runs the
// simulations it needs and returns a Report containing the rows/series the
// paper plots plus headline summary numbers. Most are declared as grid specs
// (workloads × named configurations, see grid.go) and run by one executor;
// the rest are hand-written FigN/TableN-style functions.
//
// Simulations are scheduled through a parallel experiment engine
// (internal/experiments/runner): every run is identified by a canonical run
// key — the fully-resolved machine configuration plus workload, trace seed
// and trace length — deduplicated across experiments, executed on a bounded
// worker pool, and optionally persisted to an on-disk cache so interrupted
// or overlapping sweeps resume instead of recomputing. Reports are
// byte-identical regardless of the job count (each simulation is itself
// deterministic and single-threaded; concurrency only changes *when* a run
// executes, never its result).
//
// Execution is fault tolerant: every simulation is one attempt under the
// sweep's context with an optional per-run deadline (a deterministic
// simulation that fails would fail the same way again), and a run that
// fails — including a panicking simulation — degrades only the experiments
// that need it. Those experiments complete as FAILED(reason) reports
// carrying the failed run's label and benchmark, while the rest of the
// sweep proceeds; completed results stay in the disk cache, so a canceled
// or partially-failed sweep resumes instead of recomputing.
//
// Figures 9, 11 and 13 are policy/state diagrams with no measured data;
// their semantics are unit-tested in internal/repl and internal/cache.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"atcsim/internal/experiments/runner"
	"atcsim/internal/faultinject"
	"atcsim/internal/metrics"
	"atcsim/internal/stats"
	"atcsim/internal/system"
	"atcsim/internal/telemetry"
	"atcsim/internal/trace"
	"atcsim/internal/workloads"
)

// Scale controls how much simulation each experiment performs. The paper
// simulates 10B-instruction regions; this simulator reproduces shapes at
// 10^5–10^6 instructions per run.
type Scale struct {
	// TraceLen is the synthesized trace length per benchmark.
	TraceLen int
	// Instructions and Warmup are per-core simulation lengths.
	Instructions int
	Warmup       int
	// Workloads restricts the benchmark list (default: all nine).
	Workloads []string
	// Seed feeds workload synthesis.
	Seed int64
	// Timing selects the hierarchy timing engine for every run ("" or
	// "analytic" = the default analytic model, "queued" = bounded deques;
	// see system.TimingModels). "analytic" is normalized to "" so those
	// sweeps share run keys and disk-cache entries with legacy sweeps.
	Timing string
	// SimJobs caps the barrier engine's worker goroutines for every
	// multi-core run in the sweep (system.Config.SimJobs): 0 = one worker
	// per CPU, 1 = every core resumed on one goroutine. Reports are
	// byte-identical for any value, and the knob is excluded from run keys
	// and the disk cache.
	SimJobs int
}

// Full is the default experiment scale: every benchmark, 300K measured
// instructions after 100K warmup.
func Full() Scale {
	return Scale{
		TraceLen:     500_000,
		Instructions: 300_000,
		Warmup:       100_000,
		Workloads:    workloads.Names(),
		Seed:         1,
	}
}

// Quick is a reduced scale for benchmarks and smoke tests: three
// representative benchmarks (one per STLB-MPKI category), short runs.
func Quick() Scale {
	return Scale{
		TraceLen:     150_000,
		Instructions: 80_000,
		Warmup:       30_000,
		Workloads:    []string{"xalancbmk", "mcf", "pr"},
		Seed:         1,
	}
}

func (sc Scale) workloads() []string {
	if len(sc.Workloads) == 0 {
		return workloads.Names()
	}
	return sc.Workloads
}

// pick returns the scale's workloads that are among want, in scale order.
// With no wanted names, or none of them at this scale, it returns every
// workload of the scale.
func (sc Scale) pick(want ...string) []string {
	var out []string
	for _, w := range sc.workloads() {
		if slices.Contains(want, w) {
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		return sc.workloads()
	}
	return out
}

// mixes returns the candidate mixes (one workload per hardware thread or
// core) whose every workload is at this scale, in candidate order.
func (sc Scale) mixes(candidates [][]string) [][]string {
	have := sc.workloads()
	var out [][]string
next:
	for _, mix := range candidates {
		for _, w := range mix {
			if !slices.Contains(have, w) {
				continue next
			}
		}
		out = append(out, mix)
	}
	return out
}

// Report is one experiment's regenerated data.
type Report struct {
	ID    string
	Title string
	Table *stats.Table
	Notes []string
	// Summary holds headline aggregates (keys documented per experiment),
	// used by tests and EXPERIMENTS.md.
	Summary map[string]float64
	// Failed, when non-empty, is the reason this experiment produced no
	// data: a required simulation permanently failed (or the sweep was
	// canceled) and the failure was contained here instead of aborting the
	// sweep. Failed reports carry no Table/Summary.
	Failed string
}

// String renders the report as text. Failed experiments render a stable
// FAILED(reason) marker instead of data.
func (r *Report) String() string {
	var b strings.Builder
	if r.Failed != "" {
		fmt.Fprintf(&b, "== %s: FAILED ==\nFAILED(%s)\n", r.ID, r.Failed)
		return b.String()
	}
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Table != nil {
		b.WriteString(r.Table.String())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if len(r.Summary) > 0 {
		keys := make([]string, 0, len(r.Summary))
		for k := range r.Summary {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "summary %s = %.4f\n", k, r.Summary[k])
		}
	}
	return b.String()
}

// RunError identifies one simulation's failure: which experiment label and
// benchmark requested it, and the error. When the failure was a crash,
// Panic holds the recovered panic value (also wrapped inside Err as a
// *runner.PanicError).
type RunError struct {
	Label string
	Name  string
	Panic any
	Err   error
}

// Error renders a stable, schedule-independent message so FAILED markers
// derived from it are byte-identical across job counts.
func (e *RunError) Error() string {
	return fmt.Sprintf("run %s/%s failed: %v", e.Label, e.Name, e.Err)
}

// Unwrap exposes the underlying failure for errors.Is/As chains.
func (e *RunError) Unwrap() error { return e.Err }

// abortExperiment is the controlled panic an experiment body raises (via
// must) when a governed run permanently fails. It is caught at the
// experiment boundary (runExperiment) and converted into a FAILED report;
// any other panic is a genuine bug and still propagates.
type abortExperiment struct{ err error }

// must unwraps a governed run inside an experiment body: table builders
// stay straight-line code, and a failed run aborts only the enclosing
// experiment, never the sweep.
func must[V any](v V, err error) V {
	if err != nil {
		panic(&abortExperiment{err: err})
	}
	return v
}

// runExperiment executes one catalog entry with containment: an
// abortExperiment panic (a permanently-failed run) becomes a FAILED report
// carrying the failure reason.
func runExperiment(r *Runner, id string, fn func(*Runner) *Report) (rep *Report) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		ab, ok := p.(*abortExperiment)
		if !ok {
			panic(p)
		}
		rep = &Report{ID: id, Title: "FAILED", Failed: ab.err.Error()}
	}()
	return fn(r)
}

// Options configures the experiment engine behind a Runner.
type Options struct {
	// Jobs bounds how many simulations execute concurrently. Zero or
	// negative selects runtime.NumCPU(). Report output is byte-identical for
	// any value.
	Jobs int
	// CacheDir, when non-empty, enables the on-disk result cache: every
	// finished simulation is written there (JSON, keyed by run-key hash with
	// format-version and checksum fields) and later runners with the same
	// directory load it back instead of re-simulating. The directory is
	// created if missing.
	CacheDir string
	// RunTimeout, when positive, bounds each simulation. A run that exceeds
	// it is abandoned and fails with a deadline error (the simulator has no
	// preemption points, so the abandoned simulation finishes in the
	// background and is discarded).
	RunTimeout time.Duration
	// SweepBudget, when positive, bounds the whole sweep: once spent, every
	// remaining run fails fast with a deadline error.
	SweepBudget time.Duration
	// Faults, when non-nil, injects deterministic faults at the engine's
	// hook points (chaos testing). See internal/faultinject.
	Faults *faultinject.Plan
	// Metrics, when non-nil, is the registry the engine exposes itself on:
	// health counters, the live per-run-key state table and every
	// simulation counter family (folded in as runs complete — see
	// system.MetricsSink). Registration happens eagerly, so a /metrics
	// scrape shows the full series set before the first run finishes.
	Metrics *metrics.Registry
	// Recorder, when non-nil, receives structured flight-recorder events
	// (run started/done/failed, panics, fault injections,
	// quarantines) and is dumped to its sink on every run failure. See
	// metrics.FlightRecorder.
	Recorder *metrics.FlightRecorder
}

// Runner schedules and caches the simulations experiments request. Results
// are memoized by canonical run key, so experiments sharing a configuration
// (e.g. the baseline) pay for it once — even when they execute
// concurrently. Traces are memoized only at the scale's Seed (see
// TryTraceSeeded): at most one per registered workload. All methods are
// safe for concurrent use.
type Runner struct {
	sc         Scale
	pool       *runner.Pool
	traces     *runner.Cache[*trace.Trace]
	results    *runner.Cache[*system.Result]
	disk       *runner.Disk
	ctx        context.Context
	cancel     context.CancelFunc
	runTimeout time.Duration
	faults     *faultinject.Plan
	health     *telemetry.Health
	runsTable  *metrics.RunTable
	recorder   *metrics.FlightRecorder
	sink       *system.MetricsSink

	mu       sync.Mutex
	cacheErr error

	// OnRun, when non-nil, is invoked after every simulation the runner
	// actually performs (memoization and disk-cache hits are silent) with
	// the experiment's run label, the benchmark name and the number of
	// simulations so far — the live-progress hook for long sweeps
	// (cmd/figures -progress). Calls are serialized under the runner's
	// internal lock, so the callback needs no locking of its own; under a
	// parallel sweep the invocation order is nondeterministic. Set it before
	// the first Run.
	OnRun func(key, name string, runs int)
}

// NewRunner creates a sequential runner at the given scale (one simulation
// at a time, no on-disk cache) — the right default for tests and library
// use. Use NewRunnerWith to run simulations in parallel, persist results,
// or govern runs with deadlines.
func NewRunner(sc Scale) *Runner {
	r, err := NewRunnerWith(sc, Options{Jobs: 1})
	if err != nil {
		// Options{Jobs: 1} cannot fail: no cache directory is opened.
		panic(err)
	}
	return r
}

// NewRunnerWith creates a runner with an explicit job count and optional
// on-disk result cache, sweep budget, per-run deadline and fault plan. It
// fails only when the cache directory cannot be created.
func NewRunnerWith(sc Scale, opts Options) (*Runner, error) {
	r := &Runner{
		sc:         sc,
		pool:       runner.NewPool(opts.Jobs),
		traces:     runner.NewCache[*trace.Trace](),
		results:    runner.NewCache[*system.Result](),
		runTimeout: opts.RunTimeout,
		faults:     opts.Faults,
		health:     new(telemetry.Health),
		runsTable:  metrics.NewRunTable(),
		recorder:   opts.Recorder,
	}
	if opts.Metrics != nil {
		r.health.RegisterMetrics(opts.Metrics)
		r.runsTable.Register(opts.Metrics)
		r.sink = system.NewMetricsSink(opts.Metrics)
		if r.recorder != nil {
			r.recorder.Register(opts.Metrics)
		}
	}
	if r.recorder != nil {
		// Fault firings become flight-recorder events: ev.ID is the stable
		// run/cache identity the plan matched, ev.Hit the per-identity
		// consultation count, so the recorded set is schedule-independent.
		rec := r.recorder
		opts.Faults.SetObserver(func(ev faultinject.Event) {
			rec.Recordf(metrics.EventFault, ev.ID, ev.Hit, "%s at %s", ev.Kind, ev.Site)
		})
	}
	if opts.SweepBudget > 0 {
		r.ctx, r.cancel = context.WithTimeout(context.Background(), opts.SweepBudget)
	} else {
		r.ctx, r.cancel = context.WithCancel(context.Background())
	}
	if opts.CacheDir != "" {
		disk, err := runner.NewDisk(opts.CacheDir)
		if err != nil {
			r.cancel()
			return nil, err
		}
		disk.SetFaults(opts.Faults)
		disk.OnQuarantine(func(path string) {
			r.health.Quarantined.Add(1)
			// filepath.Base keeps the event detail free of the (run-specific)
			// cache directory, preserving dump determinism.
			r.recorder.Recordf(metrics.EventQuarantine, "", 0, "%s", filepath.Base(path))
		})
		r.disk = disk
	}
	return r, nil
}

// Scale returns the runner's scale.
func (r *Runner) Scale() Scale { return r.sc }

// Jobs returns the runner's simulation concurrency bound.
func (r *Runner) Jobs() int { return r.pool.Jobs() }

// Health returns the sweep's run/failure counters (never nil).
func (r *Runner) Health() *telemetry.Health { return r.health }

// RunsTable returns the live per-run-key state table (never nil) — the
// backing store of a metrics server's /runs endpoint.
func (r *Runner) RunsTable() *metrics.RunTable { return r.runsTable }

// Cancel cancels the sweep: in-flight simulations finish (and their results
// are cached), every not-yet-started run fails fast with a canceled error,
// and the sweep completes with FAILED markers instead of aborting. Safe to
// call from a signal handler goroutine; idempotent.
func (r *Runner) Cancel() { r.cancel() }

// Interrupted reports whether the sweep's context has been canceled or its
// budget spent.
func (r *Runner) Interrupted() bool { return r.ctx.Err() != nil }

// Quarantined returns how many corrupt disk-cache entries were quarantined
// to ".bad" siblings (and recomputed) during this runner's lifetime.
func (r *Runner) Quarantined() int64 { return r.disk.Quarantined() }

// Runs returns the number of simulations actually performed so far
// (memoization and disk-cache hits excluded): the Health counter of the
// same name.
func (r *Runner) Runs() int {
	return int(r.health.Runs.Load())
}

// DiskHits returns how many results were served from the on-disk cache
// instead of being simulated (the Health counter of the same name).
func (r *Runner) DiskHits() int {
	return int(r.health.DiskHits.Load())
}

// CacheErr returns the first on-disk cache read/write failure observed, if
// any. Cache failures never fail a sweep — the result is recomputed or kept
// in memory only — but callers may want to surface them.
func (r *Runner) CacheErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cacheErr
}

// ran counts one successful simulation. The increment shares the lock
// that serializes OnRun, so the callback sees 1, 2, 3, … with no repeats.
func (r *Runner) ran(key, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.health.Runs.Add(1)
	if r.OnRun != nil {
		r.OnRun(key, name, int(n))
	}
}

func (r *Runner) noteCacheErr(err error) {
	r.mu.Lock()
	if r.cacheErr == nil {
		r.cacheErr = err
	}
	r.mu.Unlock()
	r.health.DiskErrors.Add(1)
}

// noteFailure folds one governed run's failure into the health counters
// and returns it as a *RunError. A success is counted by ran.
func (r *Runner) noteFailure(label, name string, err error) *RunError {
	h := r.health
	h.Failures.Add(1)
	re := &RunError{Label: label, Name: name, Err: err}
	var pe *runner.PanicError
	if errors.As(err, &pe) {
		h.Panics.Add(1)
		re.Panic = pe.Value
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		h.Timeouts.Add(1)
	case errors.Is(err, context.Canceled):
		h.Canceled.Add(1)
	}
	return re
}

// TryTraceSeeded returns the trace for a benchmark and seed. At Scale.Seed
// the trace is memoized and synthesis is single-flight: concurrent requests
// share one build and every later call returns the same trace. Any other
// seed (the robustness sweep's extra seeds, a service's fresh-seed
// requests) is synthesized afresh on every call and never retained, so the
// memo holds at most one trace per workload; two concurrent runs at such a
// seed each synthesize their own copy. An unregistered benchmark name is a
// permanent error carrying the trace identity.
func (r *Runner) TryTraceSeeded(name string, seed int64) (*trace.Trace, error) {
	key := fmt.Sprintf("%s@%d", name, seed)
	build := func() (*trace.Trace, error) {
		s, err := workloads.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: trace %s: %w", key, err)
		}
		return s.Build(r.sc.TraceLen, seed), nil
	}
	if seed != r.sc.Seed {
		return build()
	}
	t, _, err := r.traces.Do(key, build)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// RunSource classifies where a governed run's result came from, so service
// callers can count real computes apart from deduplicated requests.
type RunSource string

// Result provenance values returned by RunOne (and internally by cached).
const (
	// SourceComputed: this request performed the simulation.
	SourceComputed RunSource = "computed"
	// SourceDisk: this request loaded the result from the on-disk store.
	SourceDisk RunSource = "disk"
	// SourceShared: this request coalesced onto another in-flight or
	// already-memoized execution in this process (single-flight dedup).
	SourceShared RunSource = "shared"
)

// cached is the engine core every simulation goes through: it derives the
// canonical run key, consults the in-memory single-flight cache and the
// optional disk cache, and otherwise executes sim once on the worker pool
// under ctx — with the given per-run deadline and the fault plan —
// persisting the fresh result. Sweep-driven callers pass the sweep context
// and runner-wide deadline; service callers thread a per-request
// context/deadline through instead. A failure (including a captured panic)
// is returned as a *RunError carrying the label/name run identity; the
// failed cache entry re-arms, so a later request for the same key computes
// afresh instead of inheriting the failure.
func (r *Runner) cached(ctx context.Context, timeout time.Duration,
	label, name, kind string, names []string, seeds []int64,
	cfg system.Config, sim func() (*system.Result, error)) (*system.Result, RunSource, error) {
	key, err := runner.NewKey(kind, names, seeds, r.sc.TraceLen, cfg)
	if err != nil {
		return nil, SourceComputed, &RunError{Label: label, Name: name,
			Err: fmt.Errorf("derive run key: %w", err)}
	}
	id := label + "/" + name
	src := SourceShared // overwritten when this call's compute closure runs
	res, _, err := r.results.Do(key.Hash(), func() (*system.Result, error) {
		r.runsTable.Queued(id, key.Hash())
		fromDisk := new(system.Result)
		if ok, lerr := r.disk.Load(key, fromDisk); lerr != nil {
			r.noteCacheErr(lerr) // unreadable/undecodable entry: recompute below
			r.recorder.Recordf(metrics.EventDiskError, id, 0, "load: %v", lerr)
		} else if ok {
			r.health.DiskHits.Add(1)
			r.runsTable.Cached(id)
			src = SourceDisk
			return fromDisk, nil
		}
		src = SourceComputed
		// One attempt: a context already done refuses the run before it
		// queues for a pool slot.
		var out *system.Result
		err := ctx.Err()
		if err != nil {
			err = fmt.Errorf("run refused: %w", err)
		} else {
			r.runsTable.Running(id)
			r.recorder.Record(metrics.Event{Kind: metrics.EventRunStarted, Run: id, Attempt: 1})
			r.pool.Run(func() {
				// The fault check runs inside the bound, so a deadline or
				// Cancel cuts an injected stall short like a slow run.
				out, err = runner.Bounded(ctx, timeout, func() (*system.Result, error) {
					if ferr := r.faults.Check(faultinject.SiteRun, id); ferr != nil {
						return nil, ferr
					}
					return sim()
				})
			})
		}
		if err != nil {
			re := r.noteFailure(label, name, err)
			r.runsTable.Failed(id, err.Error())
			if re.Panic != nil {
				r.recorder.Recordf(metrics.EventPanic, id, 1, "%v", re.Panic)
			}
			r.recorder.Recordf(metrics.EventRunFailed, id, 1, "%v", err)
			// A failure dumps the post-mortem; an unwritable sink must not
			// turn diagnostics into a second failure.
			_ = r.recorder.DumpToSink()
			return nil, re
		}
		r.runsTable.Done(id)
		if cfg.CheckInvariants {
			r.recorder.Recordf(metrics.EventAudit, id, 1, "ok")
		}
		r.recorder.Record(metrics.Event{Kind: metrics.EventRunDone, Run: id, Attempt: 1})
		r.ran(label, name)
		r.sink.Record(out)
		if serr := r.disk.Store(key, out); serr != nil {
			r.noteCacheErr(serr)
			r.recorder.Recordf(metrics.EventDiskError, id, 0, "store: %v", serr)
		}
		return out, nil
	})
	if err != nil {
		return nil, src, err
	}
	return res, src, nil
}

// baseConfig is the scale-adjusted Table I configuration.
func (r *Runner) baseConfig() system.Config {
	cfg := system.DefaultConfig()
	cfg.Instructions = r.sc.Instructions
	cfg.Warmup = r.sc.Warmup
	if r.sc.Timing != "" && r.sc.Timing != system.TimingAnalytic {
		cfg.Timing = r.sc.Timing
	}
	cfg.SimJobs = r.sc.SimJobs
	return cfg
}

// Run simulates benchmark name under a modified configuration. key labels
// the modification in progress output; deduplication uses the canonical run
// key (the fully-resolved configuration plus workload, seed and trace
// length), so two experiments requesting identical machines share one
// simulation even under different labels. A permanent failure aborts the
// enclosing experiment (see TryRun for the error-returning form).
func (r *Runner) Run(key, name string, mod func(*system.Config)) *system.Result {
	return must(r.TryRun(key, name, mod))
}

// TryRun is Run returning the failure as a *RunError instead of aborting
// the enclosing experiment — the entry point for callers that handle
// per-run failures themselves.
func (r *Runner) TryRun(label, name string, mod func(*system.Config)) (*system.Result, error) {
	return r.trySeeded(label, name, r.sc.Seed, mod)
}

// runSeeded is Run against the trace synthesized with an explicit seed.
func (r *Runner) runSeeded(label, name string, seed int64, mod func(*system.Config)) *system.Result {
	return must(r.trySeeded(label, name, seed, mod))
}

// trySeeded is the error-returning core of Run/runSeeded.
func (r *Runner) trySeeded(label, name string, seed int64, mod func(*system.Config)) (*system.Result, error) {
	res, _, err := r.runOne(r.ctx, r.runTimeout, label, name, seed, mod)
	return res, err
}

// KeyFor derives the canonical run key a single-core run request maps to —
// the content-addressed identity a sweep service exposes as its API
// contract — without executing anything. mod receives the scale-adjusted
// base configuration exactly as Run would apply it.
func (r *Runner) KeyFor(name string, seed int64, mod func(*system.Config)) (runner.Key, error) {
	cfg := r.baseConfig()
	if mod != nil {
		mod(&cfg)
	}
	return runner.NewKey(runner.KindSingle, []string{name}, []int64{seed}, r.sc.TraceLen, cfg)
}

// RunOne executes (or fetches) one governed single-core simulation on
// behalf of a service request. ctx bounds the computation — pass the
// service's lifetime context, not a per-client one, because single-flight
// waiters share the computing call's context; a nil ctx selects the
// runner's sweep context. timeout, when positive, overrides the
// runner-wide per-run deadline for this request and is propagated through
// context into runner.Bounded. The returned RunSource reports whether this
// request computed the result, loaded it from disk, or coalesced onto a
// shared execution. Failures come back as a *RunError; nothing aborts.
func (r *Runner) RunOne(ctx context.Context, label, name string, seed int64,
	timeout time.Duration, mod func(*system.Config)) (*system.Result, RunSource, error) {
	if ctx == nil {
		ctx = r.ctx
	}
	if timeout <= 0 {
		timeout = r.runTimeout
	}
	return r.runOne(ctx, timeout, label, name, seed, mod)
}

// runOne is the shared single-core core behind trySeeded and RunOne.
func (r *Runner) runOne(ctx context.Context, timeout time.Duration,
	label, name string, seed int64, mod func(*system.Config)) (*system.Result, RunSource, error) {
	cfg := r.baseConfig()
	if mod != nil {
		mod(&cfg)
	}
	return r.cached(ctx, timeout, label, name, runner.KindSingle, []string{name}, []int64{seed}, cfg,
		func() (*system.Result, error) {
			tr, err := r.TryTraceSeeded(name, seed)
			if err != nil {
				return nil, err
			}
			return system.Run(cfg, tr)
		})
}

// Baseline runs the paper's baseline (DRRIP + SHiP) for a benchmark.
func (r *Runner) Baseline(name string) *system.Result {
	return r.Run("baseline", name, nil)
}

// Enhanced runs the given cumulative enhancement level.
func (r *Runner) Enhanced(name string, e system.Enhancement) *system.Result {
	return r.Run("enh:"+e.String(), name, applied(e))
}

// SeededSpeedupsAt measures the full-stack speedup of one benchmark at
// each of seeds, returning the individual values in seed order. It
// quantifies how sensitive the headline result is to the synthetic trace
// instance. Seeds are evaluated concurrently (bounded by the runner's job
// count).
func (r *Runner) SeededSpeedupsAt(name string, seeds []int64) []float64 {
	out := make([]float64, len(seeds))
	forEachIndex(len(seeds), func(i int) {
		seed := seeds[i]
		base := r.runSeeded(fmt.Sprintf("baseline@%d", seed), name, seed, nil)
		enh := r.runSeeded(fmt.Sprintf("tempo@%d", seed), name, seed,
			func(c *system.Config) { c.Apply(system.TEMPO) })
		out[i] = enh.SpeedupOver(base)
	})
	return out
}

// catalogEntry pairs an experiment identifier with its generator function.
type catalogEntry struct {
	id string
	fn func(*Runner) *Report
}

// catalog lists every experiment in paper order; IDs, All and ByID all
// derive from it, so an experiment registered here is automatically listed,
// runnable and covered by the documentation-coverage test.
var catalog = []catalogEntry{
	{"fig1", Fig1}, fig2.entry(), fig3.entry(), fig4.entry(),
	fig5.entry(), fig6.entry(), fig7.entry(), fig8.entry(),
	fig10.entry(), fig12.entry(), fig14.entry(), fig15.entry(),
	{"fig16", Fig16}, fig17.entry(), fig18.entry(), fig19.entry(),
	fig20.entry(), fig21.entry(), {"table1", TableI}, {"table2", TableII},
	multiCore.entry(),
	ablationDecompose.entry(),
	ablationWalkers.entry(),
	ablationReplayDelay.entry(),
	ablationScatter.entry(),
	ablationTHawkeye.entry(),
	ablationHugePages.entry(),
	comparison.entry(),
	{"robustness", Robustness},
	{"mechanisms", Mechanisms},
	{"queues", Queues},
}

// All returns every experiment report at the given scale, in paper order.
func All(sc Scale) []*Report { return AllWith(NewRunner(sc)) }

// AllWith is All on a caller-provided runner, so long sweeps can install a
// progress hook (Runner.OnRun), share memoized results, or run in parallel
// (NewRunnerWith). Experiments execute concurrently — the runner's job count
// bounds how many simulations are in flight — and reports are assembled in
// paper order, so the output is identical to a sequential sweep. A
// permanently-failed run yields FAILED reports for the experiments that
// needed it; the rest of the sweep completes normally.
func AllWith(r *Runner) []*Report {
	reports := make([]*Report, len(catalog))
	forEachIndex(len(catalog), func(i int) {
		reports[i] = runExperiment(r, catalog[i].id, catalog[i].fn)
	})
	return reports
}

// ByID returns a single experiment by its identifier ("fig1".."fig21",
// "table1", "table2", "multicore", "ablation-*", "comparison",
// "robustness").
func ByID(sc Scale, id string) (*Report, error) { return ByIDWith(NewRunner(sc), id) }

// ByIDWith is ByID on a caller-provided runner. Like AllWith, a
// permanently-failed run is contained as a FAILED report, not an error:
// the error return is reserved for unknown identifiers.
func ByIDWith(r *Runner, id string) (*Report, error) {
	want := strings.ToLower(id)
	for _, e := range catalog {
		if e.id == want {
			return runExperiment(r, e.id, e.fn), nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs lists every experiment identifier in paper order.
func IDs() []string {
	out := make([]string, len(catalog))
	for i, e := range catalog {
		out[i] = e.id
	}
	return out
}
