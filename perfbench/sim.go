package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"atcsim/internal/experiments"
	"atcsim/internal/experiments/runner"
	"atcsim/internal/system"
	"atcsim/internal/trace"
	"atcsim/internal/workloads"
)

// scale sizes every simulation: the synthesized trace length and the
// per-core warmup and measured instruction counts.
type scale struct {
	name                         string
	traceLen, instructions, warm int
}

// scales: full is the repository's experiments.Full() scale; tiny keeps
// the benchmark's own tests fast.
var scales = map[string]scale{
	"full": {name: "full", traceLen: 500_000, instructions: 300_000, warm: 100_000},
	"tiny": {name: "tiny", traceLen: 20_000, instructions: 4_000, warm: 1_000},
}

// simWorkload is one simulation workload: the benchmarks (one per core),
// the enhancement level and the timing engine.
type simWorkload struct {
	name    string
	benches []string
	enh     system.Enhancement
	timing  string
	// setups is how many fresh set-ups a run measures: this process plus
	// setups-1 child processes.
	setups int
}

var simWorkloads = map[string]simWorkload{
	"xlat-heavy": {name: "xlat-heavy", benches: []string{"pr"}, enh: system.TEMPO, setups: 16},
	"xlat-light": {name: "xlat-light", benches: []string{"xalancbmk"}, enh: system.Baseline, setups: 20},
	"queued-mix": {name: "queued-mix", benches: []string{"pr", "mcf", "cc", "xalancbmk"}, enh: system.TEMPO,
		timing: system.TimingQueued, setups: 16},
}

// parJobs is the SimJobs of the parallel-engine check on multi-core
// workloads. Their timed ops run the barrier engine on one worker, so they
// do not need both of a 2-vCPU host's CPUs; one op per run at parJobs
// workers must reproduce their result.
const parJobs = 2

// multi reports whether the workload runs the barrier engine. Its untraced
// run and fresh set-ups then run on one Go processor: with one worker the
// engine still hands every core's goroutine to the coordinator and back,
// each handoff on two Go processors wakes the other CPU, and on a shared
// 2-vCPU host that wake-up latency, not the simulator, set the op time.
func (w simWorkload) multi() bool { return len(w.benches) > 1 }

// minOps is the fewest timed ops a run takes, however short --seconds is.
const minOps = 3

// scaleFor shares sc among the workload's cores: each core simulates
// 1/cores of it, so a multi-core op simulates as many instructions as a
// single-core one and a run holds enough ops for a steady fastest one.
func (w simWorkload) scaleFor(sc scale) scale {
	n := len(w.benches)
	return scale{name: sc.name, traceLen: sc.traceLen / n, instructions: sc.instructions / n, warm: sc.warm / n}
}

func (w simWorkload) config(sc scale) system.Config {
	cfg := system.DefaultConfig()
	cfg.Instructions, cfg.Warmup = sc.instructions, sc.warm
	cfg.Apply(w.enh)
	cfg.Timing = w.timing
	cfg.SimJobs = 1
	return cfg
}

// seeds derives one trace seed per core from the run's seed.
func (w simWorkload) seeds(seed int64) []int64 {
	out := make([]int64, len(w.benches))
	for i := range out {
		out[i] = seed + int64(i)
	}
	return out
}

// synth builds the workload's traces.
func (w simWorkload) synth(sc scale, seed int64, sp *spans, parent int) ([]*trace.Trace, error) {
	id := sp.begin("setup", parent, 0)
	defer sp.end(id)
	traces := make([]*trace.Trace, len(w.benches))
	for i, b := range w.benches {
		spec, err := workloads.ByName(b)
		if err != nil {
			return nil, err
		}
		bid := sp.begin("workloads.Spec.Build", id, 0)
		traces[i] = spec.Build(sc.traceLen, w.seeds(seed)[i])
		sp.end(bid)
	}
	return traces, nil
}

// op is one simulation: machine build plus warmup and measured phases on
// pre-built traces, exactly what one atcsim run executes.
func (w simWorkload) op(cfg system.Config, traces []*trace.Trace) (*system.Result, error) {
	if len(traces) == 1 {
		return system.Run(cfg, traces[0])
	}
	return system.RunMulti(cfg, traces)
}

// checkResult verifies one op's output and returns the digest of its
// Result JSON.
func checkResult(cfg system.Config, cores int, res *system.Result) (string, error) {
	if len(res.Cores) != cores {
		return "", fmt.Errorf("result has %d cores, want %d", len(res.Cores), cores)
	}
	for i := range res.Cores {
		c := &res.Cores[i]
		// Under the barrier engine a core may retire past its target before
		// the window closes; it must never retire fewer.
		if c.Instructions != uint64(cfg.Instructions) || c.CPU.Instructions < uint64(cfg.Instructions) {
			return "", fmt.Errorf("core %d measured %d instructions (retired %d), want %d",
				i, c.Instructions, c.CPU.Instructions, cfg.Instructions)
		}
		if math.IsNaN(c.IPC) || math.IsInf(c.IPC, 0) || c.IPC <= 0 {
			return "", fmt.Errorf("core %d IPC %v", i, c.IPC)
		}
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("encode result: %w", err)
	}
	return digest(raw), nil
}

// simRun holds one simulation run's state: its inputs, the reference
// digest every op must reproduce, and the report ops are counted in.
type simRun struct {
	w       simWorkload
	o       options
	rep     *report
	traces  []*trace.Trace
	want    string
	opInsts float64 // simulated instructions per op, warmup included
}

// runOp runs, times and checks one op; sp may be nil for an untraced op.
func (r *simRun) runOp(cfg system.Config, sp *spans, parent int) (time.Duration, *system.Result) {
	id := sp.begin("system.Run", parent, 0)
	t := time.Now()
	res, err := r.w.op(cfg, r.traces)
	d := time.Since(t)
	sp.end(id)
	if err == nil {
		mid := sp.begin("json.Marshal", parent, 0)
		var got string
		got, err = checkResult(cfg, len(r.traces), res)
		sp.end(mid)
		switch {
		case err != nil:
		case r.want == "":
			r.want = got
		case got != r.want:
			err = fmt.Errorf("op result digest %.12s differs from the first op's %.12s (SimJobs %d)", got, r.want, cfg.SimJobs)
		}
	}
	r.rep.check(err)
	return d, res
}

// loop runs ops until the deadline (at least minOps), collecting op times
// in ms; gc, when non-nil, accumulates allocation per op.
func (r *simRun) loop(cfg system.Config, until time.Time, sp *spans, parent int, gc *gcDelta) []float64 {
	var opMs []float64
	for len(opMs) < minOps || time.Now().Before(until) {
		runtime.GC()
		gc.start()
		d, _ := r.runOp(cfg, sp, parent)
		gc.stop()
		opMs = append(opMs, ms(d))
	}
	return opMs
}

// gcDelta sums heap allocation and collector cycles across ops, excluding
// the collection forced before each op.
type gcDelta struct {
	ops            int
	allocB, cycles uint64
	before         runtime.MemStats
}

func (g *gcDelta) start() {
	if g != nil {
		runtime.ReadMemStats(&g.before)
	}
}

func (g *gcDelta) stop() {
	if g == nil {
		return
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	g.ops++
	g.allocB += after.TotalAlloc - g.before.TotalAlloc
	g.cycles += uint64(after.NumGC - g.before.NumGC)
}

func (g *gcDelta) set(m metricSet) {
	m.set("gc.alloc_mb_per_op", ratio(float64(g.allocB)/(1<<20), float64(g.ops)))
	m.set("gc.cycles_per_op", ratio(float64(g.cycles), float64(g.ops)))
}

// setupSample is one fresh set-up measured in a child process: set-up
// time, and digests of the inputs and of the first op's result, which must
// match the parent's.
type setupSample struct {
	SetupS float64 `json:"setup_s"`
	Inputs string  `json:"inputs"`
	Result string  `json:"result"`
}

// childSetup measures one fresh set-up in this process.
func childSetup(o options) (setupSample, error) {
	if o.workload == "service" {
		return serviceChildSetup(o)
	}
	w := simWorkloads[o.workload]
	if w.multi() {
		runtime.GOMAXPROCS(1)
	}
	o.scale = w.scaleFor(o.scale)
	cfg := w.config(o.scale)
	t := time.Now()
	traces, err := w.synth(o.scale, o.seed, nil, 0)
	if err != nil {
		return setupSample{}, err
	}
	setup := time.Since(t)
	res, err := w.op(cfg, traces)
	if err != nil {
		return setupSample{}, err
	}
	sum, err := checkResult(cfg, len(traces), res)
	if err != nil {
		return setupSample{}, err
	}
	return setupSample{SetupS: setup.Seconds(), Inputs: tracesDigest(traces), Result: sum}, nil
}

// runChild measures one fresh set-up in a child process.
func runChild(o options) (setupSample, error) {
	var s setupSample
	exe, err := os.Executable()
	if err != nil {
		return s, err
	}
	cmd := exec.Command(exe, "--setup-child", "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--scale", o.scale.name, "--work-dir", o.workDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return s, fmt.Errorf("set-up child: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	if err := json.Unmarshal(bytes.TrimSpace(raw), &s); err != nil {
		return s, fmt.Errorf("set-up child output: %w", err)
	}
	return s, nil
}

// sameAs checks a child's fresh set-up against this process's.
func (s setupSample) sameAs(inputs, result string) error {
	if s.Inputs != inputs {
		return fmt.Errorf("a fresh set-up with the same seed built different inputs (%.12s vs %.12s)", s.Inputs, inputs)
	}
	if s.Result != result {
		return fmt.Errorf("a fresh process computed result %.12s, this one %.12s", s.Result, result)
	}
	return nil
}

func runSim(o options, w simWorkload) (*report, error) {
	o.scale = w.scaleFor(o.scale)
	if w.multi() && !o.traced {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	r := &simRun{w: w, o: o, rep: newReport()}
	cfg := w.config(o.scale)
	r.opInsts = float64((cfg.Instructions + cfg.Warmup) * len(w.benches))
	var sp *spans
	if o.traced {
		sp = newSpans()
	}
	root := sp.begin("run "+w.name, 0, 0)

	// Set-up and the first op on fresh inputs, as a fresh process runs them.
	t := time.Now()
	traces, err := w.synth(o.scale, o.seed, sp, root)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t)
	r.traces = traces
	inputs := tracesDigest(traces)
	_, first := r.runOp(cfg, sp, root)
	if first == nil {
		return nil, fmt.Errorf("first op failed: %v", r.rep.reasons)
	}
	m := r.rep.metrics

	if !o.traced {
		if w.multi() {
			par := cfg
			par.SimJobs = parJobs
			r.runOp(par, nil, 0)
		}
		// The child set-ups are spread over the measured time, one per
		// slot, so they sample the host at different moments; ops fill the
		// rest of it.
		setupS := []float64{setup.Seconds()}
		start := time.Now()
		end := start.Add(time.Duration(o.seconds * float64(time.Second)))
		slot := time.Until(end) / time.Duration(w.setups)
		var opMs []float64
		for len(opMs) < minOps || time.Now().Before(end) || len(setupS) < w.setups {
			if len(setupS) < w.setups && (time.Since(start) >= time.Duration(len(setupS))*slot || !time.Now().Before(end)) {
				s, err := runChild(o)
				if err != nil {
					return nil, err
				}
				setupS = append(setupS, s.SetupS)
				r.rep.check(s.sameAs(inputs, r.want))
				continue
			}
			runtime.GC()
			d, _ := r.runOp(cfg, nil, 0)
			opMs = append(opMs, ms(d))
		}
		fastest := slices.Min(opMs)
		m.set("ns_per_inst", fastest*1e6/r.opInsts)
		m.set("warm_ms", fastest)
		m.set("setup_s", median(setupS))
		m.set("peak_rss_mb", peakRSSMiB())
		return r.rep, nil
	}
	return r.rep, r.traced(cfg, sp, root, setup, first)
}

// traced is the per-layer run: untraced ops for the overhead baseline,
// traced ops, the build and layer probes, the runner probes, and the
// attribution ledger.
func (r *simRun) traced(cfg system.Config, sp *spans, root int, setup time.Duration, first *system.Result) error {
	o, w, m := r.o, r.w, r.rep.metrics
	third := time.Duration(o.seconds * float64(time.Second) / 3)
	var gc gcDelta
	plain := r.loop(cfg, time.Now().Add(third), nil, 0, &gc)
	gc.set(m)
	traced := r.loop(cfg, time.Now().Add(third), sp, root, nil)
	opNs := slices.Min(plain) * 1e6

	build := cfg
	build.Instructions, build.Warmup = 1, 0
	var builds []float64
	for i := 0; i < 5; i++ {
		runtime.GC()
		id := sp.begin("system.Run (1 instruction)", root, 0)
		t := time.Now()
		_, err := w.op(build, r.traces)
		builds = append(builds, ms(time.Since(t)))
		sp.end(id)
		if err != nil {
			return fmt.Errorf("build probe: %w", err)
		}
	}
	buildMs := median(builds)
	m.set("workloads.synth_ms", ms(setup))
	m.set("system.build_ms", buildMs)
	m.set("system.step_ns", (opNs-buildMs*1e6)/r.opInsts)
	m.set("trace.overhead_ratio", ratio(slices.Min(traced)*1e6, opNs))

	t := tallyResults([]*system.Result{first})
	t.layerMetrics(m)
	if w.timing == system.TimingQueued {
		t.queuedMetrics(m)
	}
	if w.multi() {
		t.schedMetrics(m)
		par := cfg
		par.SimJobs = parJobs
		parMs := r.loop(par, time.Now(), sp, root, nil)
		m.set("sched.jobs_speedup", ratio(opNs, slices.Min(parMs)*1e6))
	}

	c, err := measureCosts(sp, root)
	if err != nil {
		return err
	}
	setCosts(m, c)
	if err := runnerProbes(sp, root, o.workDir, r.key(), first, m); err != nil {
		return err
	}
	sp.end(root)

	ledger(o.out, w.name, t.attribution(c), opNs/r.opInsts, buildMs*1e6/r.opInsts, m)
	printSelfTimes(o.out, sp)
	return sp.writeChrome(o.traceOut)
}

// key derives the run key the experiment engine files this workload's
// result under.
func (r *simRun) key() func() (runner.Key, error) {
	w, sc, seeds := r.w, r.o.scale, r.w.seeds(r.o.seed)
	if len(w.benches) > 1 {
		cfg := w.config(sc)
		return func() (runner.Key, error) {
			return runner.NewKey(runner.KindMulti, w.benches, seeds, sc.traceLen, cfg)
		}
	}
	eng := experiments.NewRunner(experiments.Scale{TraceLen: sc.traceLen, Instructions: sc.instructions, Warmup: sc.warm,
		Workloads: w.benches, Seed: seeds[0], Timing: w.timing})
	return func() (runner.Key, error) {
		return eng.KeyFor(w.benches[0], seeds[0], func(c *system.Config) { c.Apply(w.enh) })
	}
}

func setCosts(m metricSet, c costs) {
	m.set("tlb.lookup_ns", c.tlbLookup)
	m.set("xlat.miss_ns", c.xlatMiss)
	m.set("cache.hit_ns", c.cacheHit)
	m.set("cache.miss_ns", c.cacheMiss)
	m.set("dram.read_ns", c.dramRead)
	m.set("queued.miss_ns", c.queuedMiss)
	for _, p := range probePolicies {
		m.set("repl.update_ns."+p, c.repl[p])
	}
}

// runnerProbes times the experiment engine's per-result work on res: run-key
// derivation, result encoding, and a disk-cache store and load in a scratch
// directory under workDir.
func runnerProbes(sp *spans, parent int, workDir string, key func() (runner.Key, error), res *system.Result, m metricSet) error {
	id := sp.begin("runner probes", parent, 0)
	defer sp.end(id)
	k, err := key()
	if err != nil {
		return err
	}
	keyNs, err := timeBatches(sp, id, "experiments.Runner.KeyFor", 200, func(_, n int) error {
		for i := 0; i < n; i++ {
			if _, err := key(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	marshalNs, err := timeBatches(sp, id, "json.Marshal(Result)", 2, func(_, n int) error {
		for i := 0; i < n; i++ {
			if _, err := json.Marshal(res); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "disk-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := runner.NewDisk(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	storeNs, err := timeBatches(sp, id, "runner.Disk.Store", 1, func(_, n int) error {
		for i := 0; i < n; i++ {
			if err := disk.Store(k, res); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	loadNs, err := timeBatches(sp, id, "runner.Disk.Load", 1, func(_, n int) error {
		for i := 0; i < n; i++ {
			ok, err := disk.Load(k, new(system.Result))
			if err != nil {
				return err
			}
			if !ok {
				return errors.New("stored result not found")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("runner.key_us", keyNs/1e3)
	m.set("runner.marshal_ms", marshalNs/1e6)
	m.set("runner.disk_store_ms", storeNs/1e6)
	m.set("runner.disk_load_ms", loadNs/1e6)
	return nil
}
