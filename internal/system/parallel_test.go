package system

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"atcsim/internal/telemetry"
	"atcsim/internal/trace"
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
// system level: an eligible multi-core run serializes to byte-identical
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
			t.Fatalf("timing=%q: eligible multi-core run did not use the parallel engine", timing)
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

// TestParallelEligibility pins the gate: configurations whose step path
// touches shared state must fall back to the serial scheduler (nil
// Result.Parallel), and plain multi-core machines must not.
func TestParallelEligibility(t *testing.T) {
	traces := parTraces(t, 20_000)
	cfg := DefaultConfig()
	cfg.Instructions = 8_000
	cfg.Warmup = 2_000

	multi := func(cfg Config) *Result {
		t.Helper()
		r, err := RunMulti(cfg, traces)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	if r := multi(cfg); r.Parallel == nil {
		t.Error("plain multi-core run did not use the parallel engine")
	}

	single, err := Run(cfg, traces[0])
	if err != nil {
		t.Fatal(err)
	}
	if single.Parallel != nil {
		t.Error("single-core run used the parallel engine")
	}

	smt, err := RunSMT(cfg, traces[0], traces[1])
	if err != nil {
		t.Fatal(err)
	}
	if smt.Parallel != nil {
		t.Error("SMT run used the parallel engine")
	}

	victima := cfg
	victima.Mechanism = "victima"
	if r := multi(victima); r.Parallel != nil {
		t.Error("victima (shared-LLC translate path) used the parallel engine")
	}

	ipcp := cfg
	ipcp.L1DPrefetcher = "ipcp"
	if r := multi(ipcp); r.Parallel != nil {
		t.Error("L1D-prefetcher run (translate closure into shared page table) used the parallel engine")
	}

	traced := cfg
	traced.Telemetry = &telemetry.Hub{Tracer: telemetry.NewTracer(1024, 64)}
	if r := multi(traced); r.Parallel != nil {
		t.Error("request-traced run used the parallel engine")
	}
}

// TestParallelReportsCoreOrder pins satellite invariants of the barrier
// engine: core rows come back in canonical core-index order (workload i at
// index i) no matter how workers interleaved, and revelator — a core-local
// mechanism — stays eligible.
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
			// A joined worker may still be unwinding when RunMulti returns;
			// give it a moment. A leaked one stays blocked for good.
			after := runtime.NumGoroutine()
			for deadline := time.Now().Add(5 * time.Second); after > before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				after = runtime.NumGoroutine()
			}
			if after > before {
				t.Errorf("%d goroutines after the run, %d before: workers outlived their phase", after, before)
			}
		})
	}
}
