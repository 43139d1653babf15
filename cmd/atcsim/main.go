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
//	atcsim -workload pr -metrics-addr localhost:9797     # live /metrics, /healthz, /debug/pprof/
//	atcsim -workload pr -metrics-log snap.jsonl          # periodic registry snapshots
//	atcsim -workload pr -cpuprofile cpu.pb.gz
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"atcsim"
	"atcsim/internal/metrics"
	"atcsim/internal/system"
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
		tickEvery   = flag.Int("interval", 10_000, "heartbeat interval in measured instructions")
		metricsAddr = flag.String("metrics-addr", "", "serve live /metrics (OpenMetrics), /healthz and /debug/pprof/ on this host:port (port 0 picks one; bind to localhost, pprof is unauthenticated)")
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
	// Each telemetry knob is checked whenever the facility that reads it is
	// on: every live surface is a tick consumer, so it reads -interval too.
	live := *metricsAddr != "" || *metricsLog != ""
	if (*hbOut != "" || live) && *tickEvery <= 0 {
		fail("-interval must be positive, got %d", *tickEvery)
	}
	if *traceOut != "" && *traceSample <= 0 {
		fail("-trace-sample must be positive, got %d", *traceSample)
	}
	if *traceOut != "" && *traceBuf <= 0 {
		fail("-trace-buf must be positive, got %d", *traceBuf)
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

	// Whole-run CPU profile; live profiles are on -metrics-addr.
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

	// Observers only exist when requested, so the default run carries no
	// tracer, no tick hook and a pristine hot path.
	if *traceOut != "" {
		cfg.Tracer = telemetry.NewTracer(*traceBuf, *traceSample)
	}

	// Every interval observer is one consumer of Config.OnTick, which the
	// simulator calls every -interval measured instructions — never from
	// the per-access hot path. Each exists only when its flag asks for it.
	var ticks []func(*atcsim.Result)
	var hb *telemetry.Heartbeat
	var hbFile *os.File
	if *hbOut != "" {
		f, err := os.Create(*hbOut)
		if err != nil {
			fail("%v", err)
		}
		format := telemetry.FormatCSV
		if strings.HasSuffix(*hbOut, ".jsonl") || strings.HasSuffix(*hbOut, ".json") {
			format = telemetry.FormatJSONL
		}
		hb, hbFile = telemetry.NewHeartbeat(f, format), f
		ticks = append(ticks, system.HeartbeatTick(hb))
	}

	// The metrics registry is the single live-introspection surface: its
	// sim_* gauges are set from the live Result at every tick, before
	// -metrics-log snapshots them.
	var mlog *os.File
	if live {
		reg := metrics.New()
		ticks = append(ticks, system.NewLiveGauges(reg).Publish)
		if *metricsLog != "" {
			f, err := os.Create(*metricsLog)
			if err != nil {
				fail("metrics-log: %v", err)
			}
			mlog = f
			seq := 0 // ticks run on the single simulator goroutine
			ticks = append(ticks, func(*atcsim.Result) {
				if err := reg.WriteJSONLSnapshot(mlog, seq); err != nil {
					fail("metrics-log: %v", err)
				}
				seq++
			})
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
	if len(ticks) > 0 {
		cfg.TickEvery = *tickEvery
		cfg.OnTick = func(r *atcsim.Result) {
			for _, tick := range ticks {
				tick(r)
			}
		}
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

	flushTelemetry(cfg.Tracer, *traceOut, hb, hbFile)
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

// flushTelemetry writes the trace file and closes the heartbeat stream.
func flushTelemetry(tr *telemetry.Tracer, traceOut string, hb *telemetry.Heartbeat, hbFile *os.File) {
	if tr != nil {
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
	if hb != nil {
		if err := hb.Err(); err != nil {
			fail("interval-stats: %v", err)
		}
		if err := hbFile.Close(); err != nil {
			fail("interval-stats: %v", err)
		}
		fmt.Fprintf(os.Stderr, "atcsim: wrote %d heartbeat rows to %s\n", hb.Count(), hbFile.Name())
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
