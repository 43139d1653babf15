// Package figurescli implements cmd/figures: flag parsing and validation,
// graceful SIGINT/SIGTERM shutdown, and report rendering (text, markdown,
// CSV) including FAILED(reason) markers for contained per-point failures.
// It lives outside cmd/ so the full pipeline — including exit codes and
// degraded output — is unit-testable without spawning a process.
package figurescli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"atcsim/internal/experiments"
	"atcsim/internal/metrics"
	"atcsim/internal/system"
	"atcsim/internal/xlat"
)

// shutdownGrace bounds how long a sweep may keep draining after the first
// SIGINT/SIGTERM before the process force-exits. In-flight simulations
// usually finish well inside it because every not-yet-started run fails
// fast once the sweep context is canceled.
const shutdownGrace = 30 * time.Second

// Exit codes: 0 success, 1 completed with FAILED experiments, 2 usage
// error, 130 interrupted by signal (128+SIGINT, the shell convention).
const (
	exitOK          = 0
	exitFailed      = 1
	exitUsage       = 2
	exitInterrupted = 130
)

// Main runs the figures CLI against args (without the program name),
// writing reports to stdout and diagnostics to stderr. It returns the
// process exit code and, for usage errors, the error to print.
func Main(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id          = fs.String("id", "", "run a single experiment (see -list)")
		list        = fs.Bool("list", false, "list experiment identifiers")
		listMechs   = fs.Bool("list-mechanisms", false, "list translation-mechanism names (the mechanisms experiment's axis)")
		scale       = fs.String("scale", "full", "experiment scale: full or quick")
		timing      = fs.String("timing", "", "hierarchy timing model for every run: "+strings.Join(system.TimingModels(), ", ")+" (empty = analytic)")
		markdown    = fs.Bool("markdown", false, "emit markdown instead of plain text")
		csvDir      = fs.String("csv", "", "also write one CSV file per experiment into this directory")
		progress    = fs.Bool("progress", false, "report each simulation run on stderr as the sweep progresses")
		jobs        = fs.Int("jobs", 0, "concurrent simulations (0 = number of CPUs)")
		simJobs     = fs.Int("sim-jobs", 1, "worker goroutines per multi-core simulation on the barrier engine (0 = number of CPUs; victima and L1D prefetchers use one); output is byte-identical for any value")
		cacheDir    = fs.String("cache-dir", "", "persist simulation results here and reuse them on later runs")
		runTimeout  = fs.Duration("run-timeout", 0, "abandon any single simulation after this long (0 = no limit)")
		sweepBudget = fs.Duration("sweep-budget", 0, "stop starting new simulations after this long (0 = no limit)")
		logLevel    = fs.String("log-level", "info", "stderr log verbosity: debug, info, warn or error")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /healthz, /runs and /flightrecorder on this host:port (port 0 picks one)")
		metricsLog  = fs.String("metrics-log", "", "append a JSONL metrics snapshot to this file every second")
		flightRec   = fs.String("flight-recorder", "", "dump the flight-recorder post-mortem here on permanent run failures (default: <cache-dir>/flight-recorder.jsonl)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage, nil // the flag package already printed the problem
	}
	if args := fs.Args(); len(args) > 0 {
		return exitUsage, fmt.Errorf("unexpected positional arguments %q (all options are flags; see -h)", args)
	}

	// Validate the time budgets up front: an explicitly-set zero or negative
	// duration is a typo (e.g. "-run-timeout 2" parsing as 2ns would be
	// caught by flag, but "-run-timeout 0s" or "-run-timeout -1m" would
	// silently disable the limit), and a misconfigured budget should fail in
	// milliseconds, not after minutes of simulation.
	var flagErr error
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "run-timeout":
			if *runTimeout <= 0 {
				flagErr = fmt.Errorf("-run-timeout must be positive, got %v", *runTimeout)
			}
		case "sweep-budget":
			if *sweepBudget <= 0 {
				flagErr = fmt.Errorf("-sweep-budget must be positive, got %v", *sweepBudget)
			}
		}
	})
	if flagErr != nil {
		return exitUsage, flagErr
	}

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		return exitUsage, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", *logLevel)
	}
	log := newLogger(stderr, lvl)

	if *list {
		fmt.Fprintln(stdout, strings.Join(experiments.IDs(), "\n"))
		return exitOK, nil
	}
	if *listMechs {
		fmt.Fprintln(stdout, strings.Join(xlat.Names(), "\n"))
		return exitOK, nil
	}

	var sc experiments.Scale
	switch strings.ToLower(*scale) {
	case "full":
		sc = experiments.Full()
	case "quick":
		sc = experiments.Quick()
	default:
		return exitUsage, fmt.Errorf("unknown scale %q", *scale)
	}
	if !system.TimingRegistered(*timing) {
		return exitUsage, fmt.Errorf("unknown timing model %q (have %s)",
			*timing, strings.Join(system.TimingModels(), ", "))
	}
	sc.Timing = *timing
	if *simJobs < 0 {
		return exitUsage, fmt.Errorf("-sim-jobs must be non-negative, got %d", *simJobs)
	}
	// Default to one intra-simulation worker: the sweep-level -jobs
	// fan-out already saturates the CPUs, so per-simulation workers would
	// only add scheduling overhead. -sim-jobs 0 is for profiling a single
	// experiment (-id with -jobs 1), where intra-simulation parallelism is
	// the only parallelism available.
	sc.SimJobs = *simJobs

	// Validate the CSV target before the sweep: a bad path should fail in
	// milliseconds, not after minutes of simulation.
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return exitUsage, fmt.Errorf("cannot create -csv directory %q: %v", *csvDir, err)
		}
	}

	// Observability: the registry backs /metrics, JSONL snapshots and the
	// expvar export; the flight recorder collects structured events and is
	// dumped on permanent run failures.
	var reg *metrics.Registry
	if *metricsAddr != "" || *metricsLog != "" {
		reg = metrics.New()
	}
	recSink := *flightRec
	if recSink == "" && *cacheDir != "" {
		recSink = filepath.Join(*cacheDir, "flight-recorder.jsonl")
	}
	var rec *metrics.FlightRecorder
	if recSink != "" || reg != nil {
		rec = metrics.NewFlightRecorder(0)
		rec.SetSink(recSink)
	}

	runner, err := experiments.NewRunnerWith(sc, experiments.Options{
		Jobs:        *jobs,
		CacheDir:    *cacheDir,
		RunTimeout:  *runTimeout,
		SweepBudget: *sweepBudget,
		Metrics:     reg,
		Recorder:    rec,
	})
	if err != nil {
		return exitUsage, fmt.Errorf("cannot open -cache-dir %q: %v", *cacheDir, err)
	}
	defer runner.Cancel()
	// Per-run lines carry run-key-scoped attributes; -progress promotes them
	// from debug to info. Simulations finish on many goroutines; OnRun calls
	// are serialized by the runner, so each line prints whole.
	runLevel := slog.LevelDebug
	if *progress {
		runLevel = slog.LevelInfo
	}
	runner.OnRun = func(key, name string, runs int) {
		log.Log(context.Background(), runLevel, "run complete",
			"n", runs, "key", key, "workload", name)
	}

	if reg != nil {
		metrics.PublishExpvar("atcsim", reg)
	}
	if *metricsAddr != "" {
		srv := &metrics.Server{
			Registry: reg,
			Runs:     runner.RunsTable(),
			Recorder: rec,
			Healthy:  func() bool { return !runner.Interrupted() },
		}
		addr, err := srv.Serve(*metricsAddr)
		if err != nil {
			return exitUsage, err
		}
		log.Info("metrics endpoint listening", "addr", addr,
			"endpoints", "/metrics /healthz /runs /flightrecorder")
	}
	if *metricsLog != "" {
		f, err := os.Create(*metricsLog)
		if err != nil {
			return exitUsage, fmt.Errorf("cannot create -metrics-log %q: %v", *metricsLog, err)
		}
		defer f.Close()
		stop := make(chan struct{})
		defer close(stop)
		go snapshotLoop(reg, f, stop, func(err error) {
			log.Warn("metrics log write failed", "err", err)
		})
	}

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the sweep — every
	// in-flight simulation finishes (and lands in the cache) while every
	// not-yet-started run fails fast — and the completed reports are still
	// rendered below, with FAILED markers. A second signal, or a sweep that
	// is still draining when the grace period expires, force-exits.
	var interrupted atomic.Bool
	done := make(chan struct{})
	defer close(done)
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		select {
		case s := <-sigc:
			interrupted.Store(true)
			runner.Cancel()
			rec.Recordf(metrics.EventSweepCancel, "", 0, "%v", s)
			log.Warn("signal received — finishing in-flight simulations and flushing completed results",
				"signal", s.String())
			if *cacheDir != "" {
				log.Warn("re-run with the same -cache-dir to resume from completed results",
					"cache_dir", *cacheDir)
			} else {
				log.Warn("no -cache-dir: completed results will be lost; use -cache-dir to make sweeps resumable")
			}
		case <-done:
			return
		}
		select {
		case <-sigc:
			log.Error("second signal — exiting immediately")
		case <-time.After(shutdownGrace):
			log.Error("still draining past the grace period — exiting", "grace", shutdownGrace.String())
		case <-done:
			return
		}
		_ = rec.DumpToSink()
		os.Exit(exitInterrupted)
	}()

	var reports []*experiments.Report
	if *id != "" {
		rep, err := experiments.ByIDWith(runner, *id)
		if err != nil {
			return exitUsage, err
		}
		reports = []*experiments.Report{rep}
	} else {
		reports = experiments.AllWith(runner)
	}
	if *progress {
		log.Info("sweep complete", "runs", runner.Runs(), "disk_hits", runner.DiskHits())
		log.Info("sweep health", healthAttrs(runner)...)
	}
	if err := runner.CacheErr(); err != nil {
		log.Warn("result cache degraded", "err", err.Error())
	}

	failed := 0
	for _, rep := range reports {
		if rep.Failed != "" {
			failed++
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, rep.ID+".csv")
			var content string
			switch {
			case rep.Failed != "":
				// A stable machine-readable marker instead of silently
				// omitting the file: downstream plotting sees the point
				// exists and failed, with the reason quoted as one CSV field.
				content = fmt.Sprintf("status,reason\nFAILED,%q\n", rep.Failed)
			case rep.Table != nil:
				content = rep.Table.CSV()
			}
			if content != "" {
				if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
					return exitFailed, err
				}
			}
		}
		if *markdown {
			if rep.Failed != "" {
				fmt.Fprintf(stdout, "### %s — FAILED\n\n`FAILED(%s)`\n\n", rep.ID, rep.Failed)
				continue
			}
			fmt.Fprintf(stdout, "### %s — %s\n\n```\n%s```\n\n", rep.ID, rep.Title, rep.Table)
			for _, n := range rep.Notes {
				fmt.Fprintf(stdout, "> %s\n", n)
			}
			fmt.Fprintln(stdout)
		} else {
			fmt.Fprintln(stdout, rep)
		}
	}

	// Persist the complete event log (atomic rewrite): a post-mortem of the
	// whole sweep beats one truncated at the last failure.
	_ = rec.DumpToSink()

	switch {
	case interrupted.Load():
		log.Warn(fmt.Sprintf("interrupted: %d/%d experiments incomplete", failed, len(reports)))
		return exitInterrupted, nil
	case failed > 0:
		log.Error(fmt.Sprintf("%d/%d experiments FAILED", failed, len(reports)))
		return exitFailed, nil
	}
	return exitOK, nil
}

// newLogger builds the CLI's structured stderr logger: slog's text handler
// with the wall-clock timestamp stripped, so log output is stable enough to
// assert on in tests and diff between runs.
func newLogger(w io.Writer, lvl slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{
		Level: lvl,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	}))
}

// healthAttrs renders the sweep health counters as slog attributes.
func healthAttrs(r *experiments.Runner) []any {
	h := r.Health()
	return []any{
		"runs", h.Runs.Load(),
		"failures", h.Failures.Load(), "panics", h.Panics.Load(),
		"timeouts", h.Timeouts.Load(), "canceled", h.Canceled.Load(),
		"disk_hits", h.DiskHits.Load(), "disk_errors", h.DiskErrors.Load(),
		"quarantined", h.Quarantined.Load(),
	}
}

// snapshotLoop appends one JSONL metrics snapshot to w every second until
// stop closes, then writes a final snapshot so even sub-second sweeps leave
// a usable log.
func snapshotLoop(reg *metrics.Registry, w io.Writer, stop <-chan struct{}, onErr func(error)) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	seq := 0
	for {
		select {
		case <-tick.C:
			if err := reg.WriteJSONLSnapshot(w, seq); err != nil {
				onErr(err)
				return
			}
			seq++
		case <-stop:
			if err := reg.WriteJSONLSnapshot(w, seq); err != nil {
				onErr(err)
			}
			return
		}
	}
}
