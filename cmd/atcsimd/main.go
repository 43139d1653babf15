// Command atcsimd serves the experiment engine as a long-lived sweep
// service (see docs/SERVICE.md for the API contract).
//
// Examples:
//
//	atcsimd -addr localhost:9799 -cache-dir .simcache
//	atcsimd -addr localhost:9799 -scale quick -jobs 4
//	atcsimd -addr localhost:9799 -admit-rate 50 -admit-burst 16 -admit-queue 32
//	atcsimd -addr localhost:9799 -breaker-threshold 3 -breaker-cooldown 10s
//	atcsimd -addr localhost:9799 -flight-recorder crash.jsonl
//
// Submit work with POST /v1/run:
//
//	curl -s localhost:9799/v1/run -d '{"workload":"mcf","seed":1,"enhancement":"tempo"}'
//
// The service sheds load with 429 + Retry-After once its admission queue
// saturates, trips a per-kind circuit breaker on repeated failures, and
// drains gracefully on SIGINT/SIGTERM: readiness (/readyz) flips to 503,
// in-flight runs finish (bounded by -drain-grace), the flight recorder is
// flushed, and the process exits 0. A kill at any instant — even SIGKILL
// mid-store — leaves no torn cache entries; a restart on the same
// -cache-dir resumes from every completed result.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"atcsim/internal/experiments"
	"atcsim/internal/metrics"
	"atcsim/internal/simserver"
)

// Exit codes, aligned with cmd/figures.
const (
	exitOK     = 0
	exitFailed = 1
	exitUsage  = 2
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "atcsimd:", err)
	}
	os.Exit(code)
}

// run parses flags, boots the service and blocks until shutdown. It
// returns the process exit code and, for usage errors, the error to print.
func run(args []string) (int, error) {
	fs := flag.NewFlagSet("atcsimd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "localhost:9799", "listen address (host:port; port 0 picks a free one)")
		scale       = fs.String("scale", "full", "simulation scale: quick or full")
		jobs        = fs.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cacheDir    = fs.String("cache-dir", "", "crash-safe on-disk result cache directory (empty = in-memory only)")
		runTimeout  = fs.Duration("run-timeout", 0, "default per-run deadline (0 = none; requests may override via timeout_ms)")
		admitRate   = fs.Float64("admit-rate", 200, "admission token refill rate in requests/sec")
		admitBurst  = fs.Int("admit-burst", 64, "admission token-bucket capacity")
		admitQueue  = fs.Int("admit-queue", 128, "admission waiter-queue bound before shedding with 429")
		brkWindow   = fs.Int("breaker-window", 8, "circuit-breaker sliding window of run outcomes per kind")
		brkThresh   = fs.Int("breaker-threshold", 5, "failures within the window that trip a kind's breaker")
		brkCooldown = fs.Duration("breaker-cooldown", 5*time.Second, "how long a tripped breaker stays open before half-open probes")
		drainGrace  = fs.Duration("drain-grace", 30*time.Second, "how long a graceful drain waits for in-flight runs")
		recorderOut = fs.String("flight-recorder", "", "flight-recorder dump file (written on failures and at drain)")
		logLevel    = fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK, nil
		}
		return exitUsage, nil // the flag package already printed the problem
	}
	if rest := fs.Args(); len(rest) > 0 {
		return exitUsage, fmt.Errorf("unexpected positional arguments %q (all options are flags; see -h)", rest)
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		return exitUsage, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", *logLevel)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick()
	case "full":
		sc = experiments.Full()
	default:
		return exitUsage, fmt.Errorf("unknown scale %q (want quick or full)", *scale)
	}

	var recorder *metrics.FlightRecorder
	if *recorderOut != "" {
		recorder = metrics.NewFlightRecorder(4096)
		recorder.SetSink(*recorderOut)
	}
	srv, err := simserver.New(simserver.Config{
		Scale:            sc,
		Jobs:             *jobs,
		CacheDir:         *cacheDir,
		RunTimeout:       *runTimeout,
		Recorder:         recorder,
		AdmitRate:        *admitRate,
		AdmitBurst:       *admitBurst,
		AdmitQueue:       *admitQueue,
		BreakerWindow:    *brkWindow,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCooldown,
	})
	if err != nil {
		return exitFailed, err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return exitFailed, fmt.Errorf("listen %s: %w", *addr, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	logger.Info("listening", "addr", ln.Addr().String(), "scale", *scale,
		"jobs", srv.Runner().Jobs(), "cache_dir", *cacheDir)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return exitFailed, fmt.Errorf("serve: %w", err)
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String(), "grace", drainGrace.String())
	}

	// Drain: refuse new work, finish in-flight runs, flush diagnostics.
	// The second signal (or the grace period) force-cancels via context.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	go func() {
		<-sig
		cancel()
	}()
	srv.Drain(drainCtx)
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	logger.Info("drained", "runs", srv.Runner().Runs(), "disk_hits", srv.Runner().DiskHits(),
		"quarantined", srv.Runner().Quarantined())
	return exitOK, nil
}
