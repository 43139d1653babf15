package system

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"atcsim/internal/mem"
	"atcsim/internal/repl"
	"atcsim/internal/stats"
	"atcsim/internal/telemetry"
	"atcsim/internal/trace"
	"atcsim/internal/vm"
	"atcsim/internal/workloads"
)

// parTraces builds a 4-workload multi-core mix covering all STLB-MPKI
// categories, with per-core seeds like the multicore experiment uses.
func parTraces(t *testing.T, n int) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for i, name := range []string{"pr", "mcf", "xalancbmk", "cc"} {
		s, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s.Build(n, int64(1+i)))
	}
	return out
}

// resultJSON canonicalizes a Result for byte comparison.
func resultJSON(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestParallelEngineDeterminism is the engine's core guarantee at the
// system level: a multi-core run serializes to byte-identical
// results for every SimJobs value — serial barrier execution (1), an
// intermediate worker count, and one worker per CPU (0) — under both the
// analytic and queued timing engines, with the full enhancement stack and
// invariant auditing enabled.
func TestParallelEngineDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("several multi-core runs")
	}
	traces := parTraces(t, 50_000)
	base := DefaultConfig()
	base.Instructions = 25_000
	base.Warmup = 10_000
	base.Apply(TEMPO)
	base.CheckInvariants = true

	for _, timing := range []string{"", "queued"} {
		cfg := base
		cfg.Timing = timing
		cfg.SimJobs = 1
		want, err := RunMulti(cfg, traces)
		if err != nil {
			t.Fatal(err)
		}
		if want.Parallel == nil {
			t.Fatalf("timing=%q: multi-core run did not use the parallel engine", timing)
		}
		if want.Parallel.Rounds == 0 || want.Parallel.SharedRequests == 0 || want.Parallel.TraceRefills == 0 {
			t.Fatalf("timing=%q: degenerate parallel stats %+v", timing, want.Parallel)
		}
		wantJSON := resultJSON(t, want)
		for _, jobs := range []int{3, 0, runtime.NumCPU()} {
			cfg.SimJobs = jobs
			got, err := RunMulti(cfg, traces)
			if err != nil {
				t.Fatal(err)
			}
			if gotJSON := resultJSON(t, got); gotJSON != wantJSON {
				t.Errorf("timing=%q: SimJobs=%d diverged from SimJobs=1:\n--- jobs=1 ---\n%s\n--- jobs=%d ---\n%s",
					timing, jobs, wantJSON, jobs, gotJSON)
			}
		}
	}
}

// TestParallelPoolGate pins the one-scheduler rule: single-core and SMT
// machines run inline as one unit (nil Result.Parallel), every multi-core
// machine runs the barrier engine, and configurations that reach shared
// state from inside a core step — a shared mechanism, an L1D prefetcher,
// the tracer — only lose the worker pool, so SimJobs cannot change their
// results either.
func TestParallelPoolGate(t *testing.T) {
	traces := parTraces(t, 20_000)
	cfg := DefaultConfig()
	cfg.Instructions = 8_000
	cfg.Warmup = 2_000

	single, err := Run(cfg, traces[0])
	if err != nil {
		t.Fatal(err)
	}
	if single.Parallel != nil {
		t.Error("single-core run reported barrier-engine stats")
	}
	smt, err := RunSMT(cfg, traces[0], traces[1])
	if err != nil {
		t.Fatal(err)
	}
	if smt.Parallel != nil {
		t.Error("SMT run reported barrier-engine stats")
	}

	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"victima", func(c *Config) { c.Mechanism = "victima" }},
		{"ipcp", func(c *Config) { c.L1DPrefetcher = "ipcp" }},
		{"traced", func(c *Config) {
			c.Tracer = telemetry.NewTracer(1024, 64)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, jobs := range []int{1, 4} {
				c := cfg
				tc.set(&c)
				c.SimJobs = jobs
				r, err := RunMulti(c, traces)
				if err != nil {
					t.Fatal(err)
				}
				if r.Parallel == nil || r.Parallel.Rounds == 0 {
					t.Fatalf("SimJobs=%d: multi-core run did not use the barrier engine: %+v", jobs, r.Parallel)
				}
				got := resultJSON(t, r)
				if want == "" {
					want = got
				} else if got != want {
					t.Errorf("SimJobs=%d diverged from SimJobs=1", jobs)
				}
			}
		})
	}
}

// TestParallelTracerAttribution checks that the tracer's in-flight
// sample moves with its core when the engine parks the core mid-step: on
// every core's request lane a sample reads "begin <kind>", at most one
// replay-issue span inside the request's window, then the enclosing
// <kind> span starting at the begin cycle. A core stepping while another
// is parked must not emit into (or close) the parked core's sample.
func TestParallelTracerAttribution(t *testing.T) {
	traces := parTraces(t, 20_000)
	cfg := DefaultConfig()
	cfg.Instructions = 8_000
	cfg.Warmup = 2_000
	tr := telemetry.NewTracer(1<<17, 8)
	cfg.Tracer = tr
	if _, err := RunMulti(cfg, traces); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; enlarge it", tr.Dropped())
	}
	type open struct {
		kind    string
		begin   int64
		replays int
	}
	pending := map[int32]*open{}
	samples, replays, shared := 0, 0, 0
	for _, ev := range tr.Events() {
		o := pending[ev.Core]
		if ev.Lane != telemetry.LaneRequest {
			if ev.Lane == telemetry.LaneStall {
				continue
			}
			if o == nil {
				t.Fatalf("core %d: %s event %q at seq %d outside any sample", ev.Core, ev.Lane, ev.Name, ev.Seq)
			}
			if ev.Name == "LLC" || ev.Lane == telemetry.LaneDRAM {
				shared++
			}
			continue
		}
		switch {
		case ev.Phase == 'i':
			if o != nil {
				t.Fatalf("core %d: %q at seq %d while sample %q is open", ev.Core, ev.Name, ev.Seq, o.kind)
			}
			kind, ok := strings.CutPrefix(ev.Name, "begin ")
			if !ok {
				t.Fatalf("core %d: unexpected instant %q", ev.Core, ev.Name)
			}
			pending[ev.Core] = &open{kind: kind, begin: ev.Ts}
		case o == nil:
			t.Fatalf("core %d: span %q at seq %d outside any sample", ev.Core, ev.Name, ev.Seq)
		case ev.Name == "replay-issue":
			if o.replays++; o.replays > 1 || ev.Ts < o.begin {
				t.Fatalf("core %d: replay-issue at seq %d (ts %d) does not belong to sample %q begun at %d",
					ev.Core, ev.Seq, ev.Ts, o.kind, o.begin)
			}
			replays++
		default:
			if ev.Name != o.kind || ev.Ts != o.begin {
				t.Fatalf("core %d: sample %q begun at %d closed by %q at %d (seq %d)",
					ev.Core, o.kind, o.begin, ev.Name, ev.Ts, ev.Seq)
			}
			delete(pending, ev.Core)
			samples++
		}
	}
	if samples == 0 || replays == 0 || shared == 0 || len(pending) != 0 {
		t.Errorf("degenerate trace: %d samples, %d replay-issue spans, %d LLC/DRAM events, %d left open",
			samples, replays, shared, len(pending))
	}
}

// TestPrefaultMatchesPerInstruction checks prefault, which translates a
// page once per run of same-page instructions, against translating every
// instruction's IP and data address: the shared allocator must hand out the
// same frames, in the same order, for the queued-mix cores in core order.
func TestPrefaultMatchesPerInstruction(t *testing.T) {
	traces := parTraces(t, 20_000)
	perInst := func(pt *vm.PageTable, tr *trace.Trace) error {
		for _, in := range tr.Insts {
			if _, err := pt.Translate(mem.Addr(in.IP)); err != nil {
				return err
			}
			if in.Op == trace.OpLoad || in.Op == trace.OpStore {
				if _, err := pt.Translate(in.Addr); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, huge := range []bool{false, true} {
		build := func(fault func(*vm.PageTable, *trace.Trace) error) (*vm.FrameAllocator, []*vm.PageTable) {
			t.Helper()
			alloc, err := vm.NewFrameAllocator(DefaultConfig().PhysBits, true)
			if err != nil {
				t.Fatal(err)
			}
			var pts []*vm.PageTable
			for _, tr := range traces {
				pt, err := vm.NewPageTable(alloc)
				if err != nil {
					t.Fatal(err)
				}
				if err := pt.SetHugePages(huge); err != nil {
					t.Fatal(err)
				}
				if err := fault(pt, tr); err != nil {
					t.Fatal(err)
				}
				pts = append(pts, pt)
			}
			return alloc, pts
		}
		gotAlloc, got := build(prefault)
		wantAlloc, want := build(perInst)
		if g, w := gotAlloc.Allocated(), wantAlloc.Allocated(); g != w {
			t.Fatalf("huge=%v: prefault allocated %d frames, per-instruction loop %d", huge, g, w)
		}
		for i, tr := range traces {
			for _, in := range tr.Insts {
				vas := []mem.Addr{mem.Addr(in.IP)}
				if in.Op == trace.OpLoad || in.Op == trace.OpStore {
					vas = append(vas, in.Addr)
				}
				for _, va := range vas {
					g, _ := got[i].Translate(va)
					w, _ := want[i].Translate(va)
					if g != w {
						t.Fatalf("huge=%v, core %d (%s): %#x translates to %#x, per-instruction loop %#x",
							huge, i, tr.Name, va, g, w)
					}
				}
			}
		}
		if g, w := gotAlloc.Allocated(), wantAlloc.Allocated(); g != w {
			t.Fatalf("huge=%v: checking translations allocated frames (%d vs %d)", huge, g, w)
		}
	}
}

// TestParallelReportsCoreOrder pins satellite invariants of the barrier
// engine: core rows come back in canonical core-index order (workload i at
// index i) no matter how workers interleaved, and a revelator run — a
// core-local mechanism — reports barrier-engine stats.
func TestParallelReportsCoreOrder(t *testing.T) {
	traces := parTraces(t, 20_000)
	cfg := DefaultConfig()
	cfg.Instructions = 8_000
	cfg.Warmup = 2_000
	cfg.Mechanism = "revelator"
	r, err := RunMulti(cfg, traces)
	if err != nil {
		t.Fatal(err)
	}
	if r.Parallel == nil {
		t.Fatal("revelator multi-core run did not use the parallel engine")
	}
	want := []string{"pr", "mcf", "xalancbmk", "cc"}
	if len(r.Cores) != len(want) {
		t.Fatalf("got %d core rows, want %d", len(r.Cores), len(want))
	}
	for i, w := range want {
		if r.Cores[i].Workload != w {
			t.Errorf("core row %d holds %q, want %q", i, r.Cores[i].Workload, w)
		}
		if r.Cores[i].Mechanism != "revelator" {
			t.Errorf("core row %d mechanism %q", i, r.Cores[i].Mechanism)
		}
	}
}

// TestParallelWorkersExitWithPhase pins the barrier engine's worker
// lifecycle: workers live for one phase and are joined when it ends, so a
// run leaves no goroutine behind. It covers serial barrier
// execution, fewer jobs than cores, and a run with no warmup phase.
func TestParallelWorkersExitWithPhase(t *testing.T) {
	traces := parTraces(t, 20_000)
	for _, tc := range []struct {
		name         string
		jobs, warmup int
		timing       string
	}{
		{"jobs1", 1, 2_000, ""},
		{"jobs2-of-4", 2, 2_000, "queued"},
		{"no-warmup", 3, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Instructions = 8_000
			cfg.Warmup = tc.warmup
			cfg.Timing = tc.timing
			cfg.SimJobs = tc.jobs
			before := runtime.NumGoroutine()
			r, err := RunMulti(cfg, traces)
			if err != nil {
				t.Fatal(err)
			}
			if r.Parallel == nil || r.Parallel.Rounds == 0 {
				t.Fatalf("run did not use the barrier engine: %+v", r.Parallel)
			}
			checkNoLeakedGoroutines(t, before)
		})
	}
}

// checkNoLeakedGoroutines fails the test unless the goroutine count falls
// back to before. A joined worker may still be unwinding when RunMulti
// returns, so it gets a moment; a leaked one stays blocked for good.
func checkNoLeakedGoroutines(t *testing.T, before int) {
	t.Helper()
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("%d goroutines after the run, %d before: workers outlived their phase", after, before)
	}
}

// errPolicyBoom is what the panicking test policy raises.
var errPolicyBoom = errors.New("test policy: boom")

// panicAfterL2Accesses is how many Hit/Insert calls one panicking-policy
// instance serves before it panics: past build, inside the warmup phase.
const panicAfterL2Accesses = 3_000

// panicPolicy is LRU that panics after panicAfterL2Accesses updates. Each
// cache owns its own instance, so the count is core-local.
type panicPolicy struct {
	repl.Policy
	n int
}

func (p *panicPolicy) tick() {
	if p.n++; p.n > panicAfterL2Accesses {
		panic(errPolicyBoom)
	}
}

func (p *panicPolicy) Hit(set, way int, a *repl.Access) {
	p.tick()
	p.Policy.Hit(set, way, a)
}

func (p *panicPolicy) Insert(set, way int, a *repl.Access) {
	p.tick()
	p.Policy.Insert(set, way, a)
}

func init() {
	repl.Register("test-panic-after", func(sets, ways int) repl.Policy {
		return &panicPolicy{Policy: repl.MustNew("lru", sets, ways)}
	})
}

// TestParallelCorePanicSurfaces pins panic containment under the barrier
// engine: a panic raised inside a core step — here by the private L2's
// replacement policy — must arrive on RunMulti's caller, where the
// experiment runner's recover turns it into a failed point, instead of
// killing the process from another goroutine. The phase must still stop
// every core and join its pool, leaving no goroutine behind.
func TestParallelCorePanicSurfaces(t *testing.T) {
	traces := parTraces(t, 20_000)
	for _, jobs := range []int{1, 2} {
		t.Run(fmt.Sprintf("jobs%d", jobs), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Instructions = 8_000
			cfg.Warmup = 2_000
			cfg.SimJobs = jobs
			cfg.L2.Policy = "test-panic-after"
			before := runtime.NumGoroutine()
			got := func() (r any) {
				defer func() { r = recover() }()
				if _, err := RunMulti(cfg, traces); err != nil {
					t.Errorf("RunMulti returned %v, want a panic", err)
				}
				return nil
			}()
			if got != errPolicyBoom {
				t.Errorf("recovered %v, want %v", got, errPolicyBoom)
			}
			checkNoLeakedGoroutines(t, before)
		})
	}
}

// TestParallelThreadsStopAtTarget pins the measured-row rule on machines
// whose threads run past their target (SMT, and 4 cores on the barrier
// engine), under both timing engines: each thread's row is frozen on the
// step it reaches the target, so it counts exactly the target and the
// heartbeat rows sum to the measured instructions. Ticks count measured
// instructions only, so the run writes at most ⌈measured/interval⌉ rows
// and every row but the last holds the interval. A frozen row must not
// share a histogram a running thread still writes; if it did, the stall
// and recall histograms would outgrow the frozen counts they pair with.
func TestParallelThreadsStopAtTarget(t *testing.T) {
	smt := func(cfg Config) (*Result, error) {
		return RunSMT(cfg, buildTrace(t, "pr", 90_000), buildTrace(t, "xalancbmk", 90_000))
	}
	multi := func(cfg Config) (*Result, error) {
		cfg.SimJobs = 2
		return RunMulti(cfg, mixTraces(t, 50_000))
	}
	for _, m := range []struct {
		name string
		run  func(Config) (*Result, error)
	}{{"smt", smt}, {"4-core", multi}} {
		for _, timing := range TimingModels() {
			t.Run(m.name+"-"+timing, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Instructions, cfg.Warmup = 40_000, 20_000
				cfg.Timing = timing
				cfg.TrackRecall = true
				const interval = 10_000
				hb := telemetry.NewHeartbeat(nil, telemetry.FormatCSV)
				cfg.TickEvery, cfg.OnTick = interval, HeartbeatTick(hb)
				r, err := m.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rows := hb.Rows()
				var insts uint64
				for i, row := range rows {
					insts += row.Instructions
					if i < len(rows)-1 && row.Instructions < interval {
						t.Errorf("heartbeat row %d of %d holds %d instructions, want at least %d", i, len(rows), row.Instructions, interval)
					}
				}
				measured := uint64(len(r.Cores) * cfg.Instructions)
				if insts != measured {
					t.Errorf("heartbeat instructions sum to %d, want %d", insts, measured)
				}
				if most := (measured + interval - 1) / interval; uint64(len(rows)) > most {
					t.Errorf("heartbeat wrote %d rows, want at most %d", len(rows), most)
				}
				for i := range r.Cores {
					c := &r.Cores[i]
					if c.CPU.Instructions != c.Instructions {
						t.Errorf("core %d: %d instructions counted, target %d", i, c.CPU.Instructions, c.Instructions)
					}
					if n := c.CPU.TransStall.Total(); n > c.MMU.STLBMisses {
						t.Errorf("core %d: %d translation stalls for %d STLB misses", i, n, c.MMU.STLBMisses)
					}
					if n := c.STLBRecall.Hist.Total(); n > c.STLBRecall.Evictions {
						t.Errorf("core %d: %d STLB recalls for %d evictions", i, n, c.STLBRecall.Evictions)
					}
				}
				// The L2 recall distributions stop with the first L2's row.
				for _, rc := range []struct {
					cl mem.Class
					r  stats.Recall
				}{{mem.ClassTransLeaf, r.L2RecallTrans}, {mem.ClassReplay, r.L2RecallReplay}} {
					if got, want := rc.r.Evictions, r.L2[0].Evictions[rc.cl]; got != want {
						t.Errorf("L2 %s recall counts %d evictions, L2[0] row %d", rc.cl, got, want)
					}
				}
			})
		}
	}
}
