// Command perfbench is the repository's end-to-end benchmark. One seeded
// invocation runs one workload in a single process through the program's
// public entry points, checks every output, and prints each metric by name
// and unit; the last line of standard output is a JSON object
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured untraced.
// With --trace 1 a separate traced run records a span around every call
// into the program, writes them as Chrome trace-event JSON, and reports the
// per-layer set, including the attribution ledger that splits ns per
// simulated instruction across layers. See README.md for the metric
// definitions and what each layer metric should move.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload xlat-heavy --seed 1 --seconds 27 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// metricDef declares one metric of BENCHMARK.json. on lists the workloads
// whose run produces it (nil: every workload); the others report 0, meaning
// the layer does not run there.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
	on                 []string
}

var (
	simOnly    = []string{"xlat-heavy", "xlat-light", "queued-mix"}
	queuedOnly = []string{"queued-mix"}
	svcOnly    = []string{"service"}
)

// endToEnd are the numbers a user waits for; bounds are the share of the
// parent's median by which each may worsen before a change is rejected.
var endToEnd = []metricDef{
	{name: "ns_per_inst", unit: "ns", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.1},
	{name: "warm_ms", unit: "ms", better: "lower", bound: 0.25},
}

var perLayer = []metricDef{
	{name: "workloads.synth_ms", unit: "ms", better: "lower"},
	{name: "system.build_ms", unit: "ms", better: "lower"},
	{name: "system.step_ns", unit: "ns", better: "lower"},
	{name: "cpu.ipc", unit: "inst/cycle", better: "higher"},
	{name: "cpu.cpi_translation", unit: "cycle/inst", better: "lower"},
	{name: "cpu.cpi_replay", unit: "cycle/inst", better: "lower"},
	{name: "cpu.cpi_nonreplay", unit: "cycle/inst", better: "lower"},
	{name: "cpu.cpi_other", unit: "cycle/inst", better: "lower"},
	{name: "tlb.stlb_mpki", unit: "1/kinst", better: "lower"},
	{name: "tlb.dtlb_mpki", unit: "1/kinst", better: "lower"},
	{name: "tlb.psc_hit_ratio", unit: "ratio", better: "higher"},
	{name: "ptw.walks_pki", unit: "1/kinst", better: "lower"},
	{name: "ptw.pte_reads_per_walk", unit: "count", better: "lower"},
	{name: "ptw.leaf_onchip_ratio", unit: "ratio", better: "higher"},
	{name: "tlb.lookup_ns", unit: "ns", better: "lower"},
	{name: "xlat.miss_ns", unit: "ns", better: "lower"},
	{name: "cache.l1d.apki", unit: "1/kinst", better: "lower"},
	{name: "cache.l1d.mpki", unit: "1/kinst", better: "lower"},
	{name: "cache.l2c.apki", unit: "1/kinst", better: "lower"},
	{name: "cache.l2c.mpki", unit: "1/kinst", better: "lower"},
	{name: "cache.llc.apki", unit: "1/kinst", better: "lower"},
	{name: "cache.llc.mpki", unit: "1/kinst", better: "lower"},
	{name: "cache.l2c.trans_mpki", unit: "1/kinst", better: "lower"},
	{name: "cache.l2c.replay_mpki", unit: "1/kinst", better: "lower"},
	{name: "cache.llc.trans_mpki", unit: "1/kinst", better: "lower"},
	{name: "cache.llc.replay_mpki", unit: "1/kinst", better: "lower"},
	{name: "cache.hit_ns", unit: "ns", better: "lower"},
	{name: "cache.miss_ns", unit: "ns", better: "lower"},
	{name: "repl.update_ns.drrip", unit: "ns", better: "lower"},
	{name: "repl.update_ns.ship", unit: "ns", better: "lower"},
	{name: "repl.update_ns.t-drrip", unit: "ns", better: "lower"},
	{name: "repl.update_ns.t-ship", unit: "ns", better: "lower"},
	{name: "prefetch.issued_pki", unit: "1/kinst", better: "lower"},
	{name: "prefetch.useful_ratio", unit: "ratio", better: "higher"},
	{name: "dram.reads_pki", unit: "1/kinst", better: "lower"},
	{name: "dram.row_hit_ratio", unit: "ratio", better: "higher"},
	{name: "dram.read_ns", unit: "ns", better: "lower"},
	{name: "queued.enqueued_pki", unit: "1/kinst", better: "lower", on: queuedOnly},
	{name: "queued.rq_full_pki", unit: "1/kinst", better: "lower", on: queuedOnly},
	{name: "queued.mshr_full_pki", unit: "1/kinst", better: "lower", on: queuedOnly},
	{name: "queued.miss_ns", unit: "ns", better: "lower"},
	{name: "sched.rounds_per_op", unit: "count", better: "lower", on: queuedOnly},
	{name: "sched.waves_per_round", unit: "count", better: "lower", on: queuedOnly},
	{name: "sched.shared_req_pki", unit: "1/kinst", better: "lower", on: queuedOnly},
	{name: "sched.skew_cycles_per_round", unit: "cycle", better: "lower", on: queuedOnly},
	{name: "trace.refills_per_op", unit: "count", better: "lower", on: queuedOnly},
	{name: "sched.jobs_speedup", unit: "x", better: "higher", on: queuedOnly},
	{name: "runner.key_us", unit: "us", better: "lower"},
	{name: "runner.marshal_ms", unit: "ms", better: "lower"},
	{name: "runner.disk_load_ms", unit: "ms", better: "lower"},
	{name: "runner.disk_store_ms", unit: "ms", better: "lower"},
	{name: "simserver.overhead_ms", unit: "ms", better: "lower", on: svcOnly},
	{name: "simserver.shed_ratio", unit: "ratio", better: "lower", on: svcOnly},
	{name: "simserver.shared_ratio", unit: "ratio", better: "higher", on: svcOnly},
	{name: "load.late_ms_p99", unit: "ms", better: "lower", on: svcOnly},
	{name: "load.warm_ms_p99", unit: "ms", better: "lower", on: svcOnly},
	{name: "gc.alloc_mb_per_op", unit: "MiB", better: "lower"},
	{name: "gc.cycles_per_op", unit: "count", better: "lower"},
	{name: "attr.cache_share", unit: "ratio", better: "lower"},
	{name: "attr.repl_share", unit: "ratio", better: "lower"},
	{name: "attr.tlb_share", unit: "ratio", better: "lower"},
	{name: "attr.xlat_share", unit: "ratio", better: "lower"},
	{name: "attr.dram_share", unit: "ratio", better: "lower"},
	{name: "attr.queued_share", unit: "ratio", better: "lower"},
	{name: "attr.residual_share", unit: "ratio", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", on: simOnly},
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"xlat-heavy", "xlat-light", "queued-mix", "service"}

// produces reports whether workload w's run sets metric d.
func (d metricDef) produces(w string) bool { return d.on == nil || slices.Contains(d.on, w) }

// metricSet collects a run's measured values by metric name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// report is one run's outcome: every op attempted, the ones whose output
// check failed (with the reasons), and the metrics.
type report struct {
	attempted, failed int
	reasons           []string
	metrics           metricSet
}

func newReport() *report { return &report{metrics: metricSet{}} }

// check counts one attempted op, failing it when err is non-nil.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.reasons) < 20 {
			r.reasons = append(r.reasons, err.Error())
		}
	}
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	scale    scale
	workDir  string
	traceOut string // Chrome trace-event JSON of a traced run
	// child makes this process one fresh set-up sample for a parent run.
	child bool
	// out receives the human-readable lines (attribution, failures).
	out io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{out: stdout}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	fs.Float64Var(&o.seconds, "seconds", 27, "measurement time per run")
	traceFlag := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	scaleName := fs.String("scale", "full", "simulation scale: full or tiny (tests)")
	fs.StringVar(&o.workDir, "work-dir", filepath.Join(".bench_build", "perfbench"), "directory for caches and trace output")
	fs.BoolVar(&o.child, "setup-child", false, "internal: measure one fresh set-up and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "perfbench: "+format+"\n", a...)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments %q", fs.Args())
	case !slices.Contains(workloadNames, o.workload):
		return usage("--workload must be one of %s, got %q", strings.Join(workloadNames, ", "), o.workload)
	case *traceFlag != 0 && *traceFlag != 1:
		return usage("--trace must be 0 or 1, got %d", *traceFlag)
	case !(o.seconds > 0):
		return usage("--seconds must be positive, got %v", o.seconds)
	}
	o.traced = *traceFlag == 1
	var ok bool
	if o.scale, ok = scales[*scaleName]; !ok {
		return usage("--scale must be full or tiny, got %q", *scaleName)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	o.traceOut = filepath.Join(o.workDir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))

	if o.child {
		sample, err := childSetup(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		raw, err := json.Marshal(sample)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(raw))
		return 0
	}

	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := resultLine(o, rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: failed/attempted = %d/%d\n", o.workload, rep.failed, rep.attempted)
	for _, r := range rep.reasons {
		fmt.Fprintf(stdout, "  failed: %s\n", r)
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// runWorkload runs the named workload.
func runWorkload(o options) (*report, error) {
	if o.workload == "service" {
		return runService(o)
	}
	return runSim(o, simWorkloads[o.workload])
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// resultLine renders the final JSON line: every metric of the run's set,
// 0 where the workload does not run the layer.
func resultLine(o options, rep *report) (string, error) {
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	out := resultOut{Correct: rep.failed == 0 && rep.attempted > 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricOut, len(defs))}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && d.produces(o.workload) {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// printSelfTimes prints the traced run's span self times by name.
func printSelfTimes(w io.Writer, sp *spans) {
	fmt.Fprintf(w, "span self time (ms):\n  %-34s %7s %12s %12s\n", "span", "count", "total", "self")
	for _, st := range sp.selfTimes() {
		fmt.Fprintf(w, "  %-34s %7d %12.3f %12.3f\n", st.name, st.count, ms(st.total), ms(st.self))
	}
}
