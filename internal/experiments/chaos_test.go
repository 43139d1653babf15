package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"atcsim/internal/faultinject"
)

// chaosRules is the canonical 3-fault plan of the acceptance scenario: one
// crashing run (multicore's TEMPO mix panics on every consultation), one
// I/O-shaped failure that would heal on a second consultation (fig17's
// TEMPO SMT run), and one on-disk cache entry silently corrupted after its
// first successful store. Each run is one attempt, so the healing rule
// still fails its run.
func chaosRules() []faultinject.Rule {
	return []faultinject.Rule{
		{Site: faultinject.SiteRun, Match: "multi:tempo/", Kind: faultinject.KindPanic},
		{Site: faultinject.SiteRun, Match: "smt:tempo/", Kind: faultinject.KindIOErr, Until: 1},
		{Site: faultinject.SiteDiskEntry, Kind: faultinject.KindCorrupt, Times: 1},
	}
}

// chaosSweep runs fig17 (2-way SMT) and multicore under one runner and
// returns the runner plus each rendered report in order.
func chaosSweep(t *testing.T, jobs int, dir string, plan *faultinject.Plan) (*Runner, []string) {
	t.Helper()
	r, err := NewRunnerWith(Quick(), Options{
		Jobs: jobs, CacheDir: dir, Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, id := range []string{"fig17", "multicore"} {
		rep, err := ByIDWith(r, id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rep.String())
	}
	return r, out
}

// TestChaos is the acceptance scenario: a seeded fault plan (panic +
// healing I/O error + corrupt disk entry) injected into a multi-point sweep.
// The sweep must complete; the I/O error must cost its run exactly one
// attempt and fail its point; both faulted points fail as FAILED markers,
// not an aborted sweep; the report bytes must be identical for any job
// count; and a resumed sweep must quarantine the corrupt entry and
// recompute only what is missing.
func TestChaos(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	planA, planB := faultinject.NewPlan(1, chaosRules()...), faultinject.NewPlan(1, chaosRules()...)
	rA, outA := chaosSweep(t, 1, dirA, planA)
	rB, outB := chaosSweep(t, 8, dirB, planB)

	// Byte-identical degradation regardless of -jobs.
	joinedA, joinedB := strings.Join(outA, ""), strings.Join(outB, "")
	if joinedA != joinedB {
		t.Errorf("chaos reports differ between jobs=1 and jobs=8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", joinedA, joinedB)
	}

	// Two FAILED points: fig17 (its TEMPO run's single attempt hits the
	// I/O error) and multicore (its TEMPO run panics).
	if n := strings.Count(joinedA, "FAILED("); n != 2 {
		t.Errorf("FAILED points = %d, want 2:\n%s", n, joinedA)
	}
	if !strings.Contains(outA[0], "== fig17: FAILED ==") || !strings.Contains(outA[0], "io-error") {
		t.Errorf("fig17 did not fail on the I/O error:\n%s", outA[0])
	}
	if !strings.Contains(outA[1], "== multicore: FAILED ==") || !strings.Contains(outA[1], "panic") {
		t.Errorf("multicore did not fail on the panic:\n%s", outA[1])
	}
	if strings.Contains(joinedA, "attempts=") {
		t.Errorf("failure reasons still count attempts:\n%s", joinedA)
	}

	// Health and fault accounting (pass A: both baselines succeed, both
	// TEMPO runs fail, one of them by a panic). The I/O rule's identity is
	// consulted once: one firing, at hit 1, and no second consultation
	// (which would have healed the run).
	for name, c := range map[string]struct {
		r    *Runner
		plan *faultinject.Plan
	}{"jobs=1": {rA, planA}, "jobs=8": {rB, planB}} {
		h := c.r.Health()
		if h.Runs.Load() != 2 || h.Failures.Load() != 2 || h.Panics.Load() != 1 {
			t.Errorf("%s: health runs=%d failures=%d panics=%d", name,
				h.Runs.Load(), h.Failures.Load(), h.Panics.Load())
		}
		var io []faultinject.Event
		for _, ev := range c.plan.Events() {
			if ev.Kind == faultinject.KindIOErr {
				io = append(io, ev)
			}
		}
		if len(io) != 1 || io[0].Hit != 1 || !strings.HasPrefix(io[0].ID, "smt:tempo/") {
			t.Errorf("%s: I/O fault events = %+v, want one at hit 1", name, io)
		}
	}

	// Resume on pass A's cache with no faults: the corrupted entry (fig17's
	// baseline, the first stored) is quarantined and recomputed, the intact
	// multicore baseline is served from disk, and both failed TEMPO runs
	// are computed afresh.
	rC, err := NewRunnerWith(Quick(), Options{Jobs: 4, CacheDir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	computed := map[string]bool{}
	rC.OnRun = func(key, name string, runs int) { computed[key+"/"+name] = true }
	for _, id := range []string{"fig17", "multicore"} {
		rep, err := ByIDWith(rC, id)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != "" {
			t.Errorf("resumed %s still failed: %s", id, rep.Failed)
		}
	}
	if q := rC.Quarantined(); q != 1 {
		t.Errorf("Quarantined = %d, want 1", q)
	}
	if rC.DiskHits() != 1 || rC.Runs() != 3 {
		t.Errorf("resume DiskHits = %d, Runs = %d, want 1 and 3", rC.DiskHits(), rC.Runs())
	}
	for _, id := range []string{"smt:tempo/xalancbmk-xalancbmk", "multi:tempo/xalancbmk-mcf-pr"} {
		if !computed[id] {
			t.Errorf("resume did not recompute %s (computed %v)", id, computed)
		}
	}
	if h := rC.Health(); h.Quarantined.Load() != 1 || h.DiskHits.Load() != 1 {
		t.Errorf("resume health quarantined=%d disk_hits=%d, want 1 and 1", h.Quarantined.Load(), h.DiskHits.Load())
	}
}

// TestRunFaultCostsOneAttempt: a SiteRun fault that would heal on its
// second consultation costs its run exactly one attempt. The request fails
// with a *RunError, and a later request for the same key — after the
// single-flight entry re-arms — computes it successfully.
func TestRunFaultCostsOneAttempt(t *testing.T) {
	plan := faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteRun, Match: "one/xalancbmk", Kind: faultinject.KindIOErr, Until: 1})
	r, err := NewRunnerWith(engineScale(), Options{Jobs: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = r.RunOne(context.Background(), "one", "xalancbmk", 1, 0, nil)
	var re *RunError
	if !errors.As(err, &re) || re.Label != "one" || re.Name != "xalancbmk" {
		t.Fatalf("faulted run = %v, want a *RunError for one/xalancbmk", err)
	}
	if got := plan.Fired(faultinject.KindIOErr); got != 1 || r.Runs() != 0 || r.Health().Failures.Load() != 1 {
		t.Errorf("after the failure: fired %d, runs %d, failures %d; want 1, 0, 1",
			got, r.Runs(), r.Health().Failures.Load())
	}
	res, src, err := r.RunOne(context.Background(), "one", "xalancbmk", 1, 0, nil)
	if err != nil || res == nil || src != SourceComputed {
		t.Fatalf("second request = (%v, %s, %v), want a fresh compute", res != nil, src, err)
	}
	if r.Runs() != 1 {
		t.Errorf("Runs = %d, want 1", r.Runs())
	}
}

// TestChaosSimJobsDeterminism injects the canonical fault plan into sweeps
// whose multi-core simulations run on the intra-simulation barrier engine.
// The degraded report bytes must be identical between one goroutine
// (SimJobs=1) and one worker per CPU (SimJobs=0): faults fire on
// run identities, not worker schedules, so parallelism inside a simulation
// must not change which points fail or what the survivors print. This is the
// assertion CI's parallel-engine job runs under -race.
func TestChaosSimJobsDeterminism(t *testing.T) {
	sweep := func(simJobs int) string {
		sc := Quick()
		sc.SimJobs = simJobs
		r, err := NewRunnerWith(sc, Options{
			Jobs: 4, Faults: faultinject.NewPlan(1, chaosRules()...),
		})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, id := range []string{"fig17", "multicore"} {
			rep, err := ByIDWith(r, id)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(rep.String())
		}
		return b.String()
	}
	serial := sweep(1)
	parallel := sweep(0)
	if serial != parallel {
		t.Errorf("degraded chaos reports differ between sim-jobs=1 and sim-jobs=0:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	// The plan must have degraded the sweep the same way TestChaos expects:
	// two FAILED points (fig17's and multicore's TEMPO runs).
	if n := strings.Count(serial, "FAILED("); n != 2 {
		t.Errorf("FAILED points = %d, want 2:\n%s", n, serial)
	}
}

// TestChaosThreeFaultSweep drives three permanent faults into a three-point
// sweep and checks complete degradation accounting: the sweep still
// produces a full report set with exactly three FAILED points. This is the
// CI chaos job's primary assertion.
func TestChaosThreeFaultSweep(t *testing.T) {
	plan := faultinject.NewPlan(1,
		faultinject.Rule{Site: faultinject.SiteRun, Match: "fig10:proper/pr", Kind: faultinject.KindPanic},
		faultinject.Rule{Site: faultinject.SiteRun, Match: "smt:tempo/", Kind: faultinject.KindPanic},
		faultinject.Rule{Site: faultinject.SiteRun, Match: "multi:baseline/", Kind: faultinject.KindPanic},
	)
	r, err := NewRunnerWith(Quick(), Options{Jobs: 4, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"fig10", "fig17", "multicore"}
	failed := 0
	for _, id := range ids {
		rep, err := ByIDWith(r, id)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != "" {
			failed++
			if !strings.Contains(rep.Failed, "panic") {
				t.Errorf("%s: failure reason = %q", id, rep.Failed)
			}
		}
	}
	if failed != 3 {
		t.Errorf("FAILED points = %d, want 3", failed)
	}
	if got := plan.Fired(faultinject.KindPanic); got != 3 {
		t.Errorf("panics fired = %d, want 3", got)
	}
	if h := r.Health(); h.Panics.Load() != 3 || h.Failures.Load() != 3 {
		t.Errorf("health panics=%d failures=%d, want 3 and 3", h.Panics.Load(), h.Failures.Load())
	}
}

// TestCancelMidSweepResumes emulates SIGINT: the sweep context is canceled
// mid-flight, the experiment completes as a FAILED point with completed
// results flushed to the disk cache, and a re-run against the same cache
// resumes — recomputing only the runs the interrupted pass never finished
// (verified by counting compute invocations per run identity).
func TestCancelMidSweepResumes(t *testing.T) {
	dir := t.TempDir()
	rA, err := NewRunnerWith(Quick(), Options{Jobs: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	computedA := map[string]bool{}
	rA.OnRun = func(key, name string, runs int) {
		computedA[key+"/"+name] = true
		if runs == 2 {
			rA.Cancel() // the moment SIGINT would cancel the sweep
		}
	}
	repA, err := ByIDWith(rA, "fig14")
	if err != nil {
		t.Fatal(err)
	}
	if repA.Failed == "" {
		t.Fatal("canceled sweep did not degrade to a FAILED point")
	}
	if !strings.Contains(repA.Failed, "canceled") {
		t.Errorf("failure reason = %q, want context cancellation", repA.Failed)
	}
	if !rA.Interrupted() {
		t.Error("Interrupted() = false after cancel")
	}
	// fig14 at quick scale needs 15 runs (3 benchmarks × (baseline + 4
	// enhancement levels)); the cancel must have stopped well short.
	const total = 15
	if rA.Runs() < 2 || rA.Runs() >= total {
		t.Fatalf("interrupted pass performed %d runs", rA.Runs())
	}
	if rA.Health().Canceled.Load() == 0 {
		t.Error("health recorded no canceled runs")
	}

	// Resume: everything the interrupted pass completed comes from disk;
	// only the remainder is computed — and no run identity repeats.
	rB, err := NewRunnerWith(Quick(), Options{Jobs: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	computedB := map[string]bool{}
	rB.OnRun = func(key, name string, runs int) { computedB[key+"/"+name] = true }
	repB, err := ByIDWith(rB, "fig14")
	if err != nil {
		t.Fatal(err)
	}
	if repB.Failed != "" {
		t.Fatalf("resumed sweep failed: %s", repB.Failed)
	}
	for id := range computedB {
		if computedA[id] {
			t.Errorf("resume recomputed %s despite a cached result", id)
		}
	}
	if rB.DiskHits() != rA.Runs() {
		t.Errorf("resume DiskHits = %d, want %d (everything the interrupted pass completed)",
			rB.DiskHits(), rA.Runs())
	}
	if rB.Runs()+rB.DiskHits() != total {
		t.Errorf("resume Runs+DiskHits = %d+%d, want %d", rB.Runs(), rB.DiskHits(), total)
	}

	// The resumed report is byte-identical to a never-interrupted sweep.
	repC, err := ByIDWith(NewRunner(Quick()), "fig14")
	if err != nil {
		t.Fatal(err)
	}
	if repB.String() != repC.String() {
		t.Errorf("resumed report differs from uninterrupted run:\n--- resumed ---\n%s\n--- fresh ---\n%s", repB, repC)
	}
}

// TestSlowFaultBoundedByRunTimeout injects a 2 s stall at the run site under
// a 100 ms per-run deadline. The stall sits inside the bound, so the run
// fails with the deadline error as soon as the deadline passes, as a slow
// simulation would, instead of sleeping out the stall first.
func TestSlowFaultBoundedByRunTimeout(t *testing.T) {
	plan := faultinject.NewPlan(1,
		faultinject.Rule{Site: faultinject.SiteRun, Kind: faultinject.KindSlow, Delay: 2 * time.Second})
	r, err := NewRunnerWith(Quick(), Options{Jobs: 1, RunTimeout: 100 * time.Millisecond, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err = r.RunOne(context.Background(), "slow", "xalancbmk", 1, 0, nil)
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("run under a stall returned %v, want the deadline error", err)
	}
	if took > 500*time.Millisecond {
		t.Errorf("run failed after %v, want soon after its 100ms deadline", took)
	}
	if got := plan.Fired(faultinject.KindSlow); got != 1 {
		t.Errorf("slow faults fired = %d, want 1", got)
	}
}
