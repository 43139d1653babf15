package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// engineScale is smaller than testScale: the engine tests run whole sweeps
// (sometimes twice), so each individual simulation must be cheap.
func engineScale() Scale {
	return Scale{
		TraceLen:     60_000,
		Instructions: 30_000,
		Warmup:       10_000,
		Workloads:    []string{"xalancbmk", "pr"},
		Seed:         1,
	}
}

func reportText(reports []*Report) string {
	var b strings.Builder
	for _, rep := range reports {
		b.WriteString(rep.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestAllWithDeterministicAcrossJobs is the engine's core guarantee: a
// parallel sweep produces byte-identical report output to a sequential one.
// The sequential sweep's text is also pinned byte for byte against
// testdata/reports.golden (every catalog experiment at engineScale), so a
// change to any report shows up as a diff to re-snapshot with
// `go test ./internal/experiments/ -update`.
func TestAllWithDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep twice")
	}
	seq := NewRunner(engineScale()) // Jobs: 1
	par, err := NewRunnerWith(engineScale(), Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if par.Jobs() != 8 {
		t.Fatalf("Jobs = %d", par.Jobs())
	}
	seqOut := reportText(AllWith(seq))
	checkGolden(t, "reports.golden", seqOut)
	parOut := reportText(AllWith(par))
	if seqOut != parOut {
		t.Errorf("parallel sweep output differs from sequential:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
			seqOut, parOut)
	}
	if seq.Runs() != par.Runs() {
		t.Errorf("run counts differ: sequential %d, parallel %d", seq.Runs(), par.Runs())
	}
}

// TestScratchStateDeterminism targets the zero-allocation hot path: the
// simulator reuses scratch requests, prefetch-candidate buffers and flat
// replacement/TLB/DRAM structures, so any accidental sharing between
// concurrently running simulations (or between the interleaved cores of one
// simulation) would show up as output divergence across job counts or
// across repeated sweeps. The experiments chosen hit every reused
// structure: fig14 (enhancement ladder: hawkeye, ATP prefetchers, TEMPO),
// fig17 (SMT: two cores interleaving on shared caches) and fig18 (STLB
// recall tracking).
func TestScratchStateDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("several sweeps")
	}
	ids := []string{"fig14", "fig17", "fig18"}
	sweep := func(jobs int) string {
		r, err := NewRunnerWith(engineScale(), Options{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, id := range ids {
			rep, err := ByIDWith(r, id)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(rep.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	want := sweep(1)
	for run, jobs := range []int{1, 8, 8} {
		if got := sweep(jobs); got != want {
			t.Fatalf("sweep %d (jobs=%d) diverged:\n--- want ---\n%s\n--- got ---\n%s",
				run, jobs, want, got)
		}
	}
}

// TestSimJobsDeterminism extends TestScratchStateDeterminism to the
// intra-simulation parallel engine: sweeps covering multi-core (barrier
// engine), SMT (serial fallback) and queued-timing multi-core machines must
// render byte-identical reports whether each simulation runs its cores
// serially (SimJobs=1) or on one worker per CPU (SimJobs=0), on top of any
// sweep-level jobs count.
func TestSimJobsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("several multi-core sweeps")
	}
	ids := []string{"fig17", "multicore"}
	sweep := func(timing string, simJobs, jobs int) string {
		sc := engineScale()
		sc.Timing = timing
		sc.SimJobs = simJobs
		r, err := NewRunnerWith(sc, Options{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, id := range ids {
			rep, err := ByIDWith(r, id)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(rep.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, timing := range []string{"", "queued"} {
		want := sweep(timing, 1, 1)
		for _, run := range []struct{ simJobs, jobs int }{{0, 1}, {1, 4}, {0, 4}} {
			if got := sweep(timing, run.simJobs, run.jobs); got != want {
				t.Fatalf("timing=%q sim-jobs=%d jobs=%d diverged from serial:\n--- want ---\n%s\n--- got ---\n%s",
					timing, run.simJobs, run.jobs, want, got)
			}
		}
	}
}

// TestDiskCacheResume checks that a second runner pointed at the same cache
// directory replays every result from disk — zero simulations — and still
// produces identical output.
func TestDiskCacheResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	sc := engineScale()
	sc.Workloads = []string{"pr"}

	cold, err := NewRunnerWith(sc, Options{Jobs: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	coldRep, err := ByIDWith(cold, "fig14")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Runs() == 0 || cold.DiskHits() != 0 {
		t.Fatalf("cold run: runs=%d diskHits=%d", cold.Runs(), cold.DiskHits())
	}
	if err := cold.CacheErr(); err != nil {
		t.Fatalf("cold run cache error: %v", err)
	}

	warm, err := NewRunnerWith(sc, Options{Jobs: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warmRep, err := ByIDWith(warm, "fig14")
	if err != nil {
		t.Fatal(err)
	}
	if warm.Runs() != 0 {
		t.Errorf("warm run re-simulated %d times", warm.Runs())
	}
	if warm.DiskHits() != cold.Runs() {
		t.Errorf("warm diskHits = %d, want %d", warm.DiskHits(), cold.Runs())
	}
	if got, want := warmRep.String(), coldRep.String(); got != want {
		t.Errorf("cached report differs:\n--- cold ---\n%s\n--- warm ---\n%s", want, got)
	}
}

// TestNewRunnerWithBadCacheDir checks that an unusable cache directory is an
// immediate constructor error, not a mid-sweep surprise.
func TestNewRunnerWithBadCacheDir(t *testing.T) {
	if _, err := NewRunnerWith(engineScale(), Options{CacheDir: filepath.Join("/dev/null", "x")}); err == nil {
		t.Error("unusable cache dir accepted")
	}
}

// TestExperimentsDocCoverage is the doc-lint guard: EXPERIMENTS.md must
// mention every runnable experiment identifier, so the catalog and its
// documentation cannot drift apart.
func TestExperimentsDocCoverage(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, id := range IDs() {
		if !strings.Contains(doc, id) {
			t.Errorf("EXPERIMENTS.md does not mention experiment %q", id)
		}
	}
}
