// Command atcsim runs a single simulation of one benchmark under a chosen
// configuration and prints the headline statistics.
//
// Examples:
//
//	atcsim -workload pr
//	atcsim -workload mcf -enhance tempo -instructions 500000
//	atcsim -workload cc -llc-policy hawkeye -l2-prefetcher spp
//	atcsim -workload pr -smt xalancbmk
//	atcsim -multi pr,mcf,cc,xalancbmk                    # one core per workload
//	atcsim -multi pr,mcf,cc,xalancbmk -sim-jobs 1        # same report, one worker
//	atcsim -workload pr -mechanism victima               # see docs/TRANSLATION.md
//	atcsim -workload mcf -timing queued                  # bounded-queue timing engine
//
// Observability:
//
//	atcsim -workload pr -trace-out trace.json            # Perfetto trace
//	atcsim -workload pr -interval-stats hb.csv -interval 10000
//	atcsim -workload pr -metrics-addr localhost:9797     # live /metrics + /healthz
//	atcsim -workload pr -metrics-log snap.jsonl          # periodic registry snapshots
//	atcsim -workload pr -pprof-addr localhost:6060 -cpuprofile cpu.pb.gz
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"atcsim"
	"atcsim/internal/metrics"
	"atcsim/internal/telemetry"
	"atcsim/internal/xlat"
)

func main() {
	var (
		workload  = flag.String("workload", "pr", "benchmark name ("+strings.Join(atcsim.Benchmarks(), ", ")+")")
		smt       = flag.String("smt", "", "second benchmark for a 2-way SMT run")
		multi     = flag.String("multi", "", "comma-separated benchmarks for a multi-core run (one core each, shared LLC/DRAM; overrides -workload)")
		simJobs   = flag.Int("sim-jobs", 0, "worker goroutines for the barrier engine on multi-core runs (0 = one per CPU, 1 = all cores on one goroutine; -trace-out, victima and L1D prefetchers use one); reports are byte-identical for any value")
		insts     = flag.Int("instructions", 300_000, "measured instructions per core")
		warmup    = flag.Int("warmup", 100_000, "warmup instructions per core")
		seed      = flag.Int64("seed", 1, "workload synthesis seed")
		enhance   = flag.String("enhance", "baseline", "enhancement level: baseline, t-drrip, t-ship, atp, tempo")
		mechanism = flag.String("mechanism", "", "translation mechanism for STLB misses: "+strings.Join(xlat.Names(), ", ")+" (empty = atp)")
		timing    = flag.String("timing", "", "hierarchy timing model: "+strings.Join(atcsim.TimingModels(), ", ")+" (empty = analytic)")
		l2Policy  = flag.String("l2-policy", "", "override L2 replacement policy")
		llcPolicy = flag.String("llc-policy", "", "override LLC replacement policy")
		l1dPf     = flag.String("l1d-prefetcher", "none", "L1D prefetcher (none, nextline, ipcp)")
		l2Pf      = flag.String("l2-prefetcher", "none", "L2 prefetcher (none, nextline, spp, bingo, isb)")
		stlb      = flag.Int("stlb", 2048, "STLB entries")
		recall    = flag.Bool("recall", false, "track recall distances")
		asJSON    = flag.Bool("json", false, "emit the full result as JSON")

		traceOut    = flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file of sampled request lifecycles")
		traceSample = flag.Int("trace-sample", telemetry.DefaultSampleEvery, "trace one in N memory instructions")
		traceBuf    = flag.Int("trace-buf", telemetry.DefaultBufferEvents, "trace ring-buffer capacity in events (oldest overwritten)")
		hbOut       = flag.String("interval-stats", "", "stream interval heartbeat stats to this file (.jsonl for JSONL, else CSV)")
		hbEvery     = flag.Int("interval", 10_000, "heartbeat interval in measured instructions")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
		metricsAddr = flag.String("metrics-addr", "", "serve live /metrics (OpenMetrics) and /healthz on this host:port (port 0 picks one)")
		metricsLog  = flag.String("metrics-log", "", "append a JSONL metrics snapshot to this file at every heartbeat interval")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if args := flag.Args(); len(args) > 0 {
		fail("unexpected positional arguments %q (all options are flags; see -h)", args)
	}
	if *insts <= 0 {
		fail("-instructions must be positive, got %d", *insts)
	}
	if *warmup < 0 {
		fail("-warmup must not be negative, got %d", *warmup)
	}
	if *stlb <= 0 {
		fail("-stlb must be positive, got %d", *stlb)
	}
	if *hbOut != "" && *hbEvery <= 0 {
		fail("-interval must be positive, got %d", *hbEvery)
	}
	if *simJobs < 0 {
		usageFail("-sim-jobs must not be negative, got %d", *simJobs)
	}
	if *multi != "" && *smt != "" {
		usageFail("-multi and -smt are mutually exclusive")
	}

	cfg := atcsim.DefaultConfig()
	cfg.Instructions = *insts
	cfg.Warmup = *warmup
	cfg.Seed = *seed
	cfg.STLB.Entries = *stlb
	cfg.L1DPrefetcher = *l1dPf
	cfg.L2Prefetcher = *l2Pf
	cfg.TrackRecall = *recall
	cfg.SimJobs = *simJobs
	if !xlat.Registered(*mechanism) {
		fail("unknown translation mechanism %q (have %s)", *mechanism, strings.Join(xlat.Names(), ", "))
	}
	cfg.Mechanism = *mechanism
	if !atcsim.TimingRegistered(*timing) {
		usageFail("unknown timing model %q (have %s)", *timing, strings.Join(atcsim.TimingModels(), ", "))
	}
	if *timing != atcsim.TimingAnalytic {
		// "analytic" normalizes to "" so the config JSON (and any run keys
		// derived from it) matches runs that never set the flag.
		cfg.Timing = *timing
	}

	levels := map[string]atcsim.Enhancement{
		"baseline": atcsim.Baseline, "t-drrip": atcsim.TDRRIP,
		"t-ship": atcsim.TSHiP, "atp": atcsim.ATP, "tempo": atcsim.TEMPO,
	}
	lvl, ok := levels[strings.ToLower(*enhance)]
	if !ok {
		fail("unknown enhancement %q", *enhance)
	}
	cfg.Apply(lvl)
	if *l2Policy != "" {
		cfg.L2.Policy = *l2Policy
	}
	if *llcPolicy != "" {
		cfg.LLC.Policy = *llcPolicy
	}

	// Profiling and live-introspection endpoints.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// Telemetry hub: each facility only exists when requested, so the
	// default run carries a nil hub and a pristine hot path.
	liveMetrics := *metricsAddr != "" || *metricsLog != ""
	hub, hbFile := buildHub(*traceOut, *traceBuf, *traceSample, *hbOut, *hbEvery,
		*pprofAddr != "" || liveMetrics)
	cfg.Telemetry = hub

	// The metrics registry is the single live-introspection surface: the
	// progress gauges reach expvar through it (PublishExpvar), and the sim_*
	// gauges are refreshed from heartbeat snapshots via Hub.OnTick — never
	// from the per-access hot path.
	var mlog *os.File
	if liveMetrics || *pprofAddr != "" {
		reg := metrics.New()
		reg.GaugeFunc("sim_instructions_done",
			"Instructions simulated so far (coarse, for liveness).",
			func() float64 { return float64(hub.ProgressOrNil().Done()) })
		reg.GaugeFunc("sim_instructions_total",
			"Instructions this run will simulate.",
			func() float64 { return float64(hub.ProgressOrNil().Total()) })
		metrics.PublishExpvar("atcsim", reg)
		if liveMetrics {
			if hub.Heartbeat == nil {
				// OnTick rides the heartbeat cadence; a writer-less heartbeat
				// provides the ticks without streaming interval stats.
				hub.Heartbeat = telemetry.NewHeartbeat(nil, telemetry.FormatJSONL, *hbEvery)
			}
			gauges := telemetry.NewSnapshotGauges(reg)
			if *metricsLog != "" {
				f, err := os.Create(*metricsLog)
				if err != nil {
					fail("metrics-log: %v", err)
				}
				mlog = f
			}
			seq := 0 // OnTick runs on the single simulator goroutine
			hub.OnTick = func(sn telemetry.Snapshot) {
				gauges.Publish(sn)
				if mlog != nil {
					if err := reg.WriteJSONLSnapshot(mlog, seq); err != nil {
						fail("metrics-log: %v", err)
					}
					seq++
				}
			}
			if *metricsAddr != "" {
				srv := &metrics.Server{Registry: reg}
				addr, err := srv.Serve(*metricsAddr)
				if err != nil {
					fail("%v", err)
				}
				fmt.Fprintf(os.Stderr, "atcsim: metrics listening on http://%s/metrics\n", addr)
			}
		}
	}

	if *pprofAddr != "" {
		servePprof(*pprofAddr)
	}

	traceLen := *insts + *warmup
	var res *atcsim.Result
	switch {
	case *multi != "":
		var traces []*atcsim.Trace
		for i, name := range strings.Split(*multi, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				usageFail("-multi has an empty benchmark name")
			}
			// Per-core seeds mirror the SMT convention: core i runs the
			// workload synthesized with seed+i.
			tr, err := atcsim.NewTrace(name, traceLen, *seed+int64(i))
			if err != nil {
				fail("%v", err)
			}
			traces = append(traces, tr)
		}
		var err error
		res, err = atcsim.RunMulti(cfg, traces...)
		if err != nil {
			fail("%v", err)
		}
	case *smt != "":
		t0, err := atcsim.NewTrace(*workload, traceLen, *seed)
		if err != nil {
			fail("%v", err)
		}
		t1, err := atcsim.NewTrace(*smt, traceLen, *seed+1)
		if err != nil {
			fail("%v", err)
		}
		res, err = atcsim.RunSMT(cfg, t0, t1)
		if err != nil {
			fail("%v", err)
		}
	default:
		t0, err := atcsim.NewTrace(*workload, traceLen, *seed)
		if err != nil {
			fail("%v", err)
		}
		res, err = atcsim.Run(cfg, t0)
		if err != nil {
			fail("%v", err)
		}
	}

	flushTelemetry(hub, hbFile, *traceOut)
	if mlog != nil {
		if err := mlog.Close(); err != nil {
			fail("metrics-log: %v", err)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fail("%v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail("memprofile: %v", err)
		}
		f.Close()
	}

	if *asJSON {
		out, err := atcsim.MarshalResult(res)
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(string(out))
		return
	}
	report(res)
}

// buildHub assembles the telemetry hub from the observability flags; it
// returns nil when nothing was requested. The returned file is the open
// heartbeat stream (closed by flushTelemetry).
func buildHub(traceOut string, traceBuf, traceSample int, hbOut string, hbEvery int, progress bool) (*telemetry.Hub, *os.File) {
	if traceOut == "" && hbOut == "" && !progress {
		return nil, nil
	}
	hub := &telemetry.Hub{}
	if traceOut != "" {
		hub.Tracer = telemetry.NewTracer(traceBuf, traceSample)
	}
	var hbFile *os.File
	if hbOut != "" {
		f, err := os.Create(hbOut)
		if err != nil {
			fail("%v", err)
		}
		format := telemetry.FormatCSV
		if strings.HasSuffix(hbOut, ".jsonl") || strings.HasSuffix(hbOut, ".json") {
			format = telemetry.FormatJSONL
		}
		hub.Heartbeat = telemetry.NewHeartbeat(f, format, hbEvery)
		hbFile = f
	}
	if progress {
		hub.Progress = &telemetry.Progress{}
	}
	return hub, hbFile
}

// servePprof exposes net/http/pprof and expvar on addr. Simulation progress
// appears under the "atcsim" expvar (the published metrics registry) rather
// than as hand-rolled top-level vars.
func servePprof(addr string) {
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "atcsim: pprof server: %v\n", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "atcsim: pprof/expvar listening on http://%s/debug/pprof/\n", addr)
}

// flushTelemetry writes the trace file and closes the heartbeat stream.
func flushTelemetry(hub *telemetry.Hub, hbFile *os.File, traceOut string) {
	if hub == nil {
		return
	}
	if tr := hub.Tracer; tr != nil && traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fail("%v", err)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			fail("trace-out: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("trace-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "atcsim: wrote %d trace events (%d sampled requests, %d dropped) to %s\n",
			len(tr.Events()), tr.Sampled(), tr.Dropped(), traceOut)
	}
	if hb := hub.Heartbeat; hb != nil && hbFile != nil {
		if err := hb.Err(); err != nil {
			fail("interval-stats: %v", err)
		}
		if err := hbFile.Close(); err != nil {
			fail("interval-stats: %v", err)
		}
		fmt.Fprintf(os.Stderr, "atcsim: wrote %d heartbeat rows to %s\n", len(hb.Rows()), hbFile.Name())
	}
}

func report(res *atcsim.Result) {
	atcsim.WriteReport(os.Stdout, res)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "atcsim: "+format+"\n", args...)
	os.Exit(1)
}

// usageFail reports a bad-input error and exits 2 (the shell convention for
// usage errors, distinct from exit 1 runtime failures).
func usageFail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "atcsim: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "see -h for usage")
	os.Exit(2)
}
