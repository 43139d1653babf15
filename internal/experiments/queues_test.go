package experiments

import (
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"atcsim/internal/cache"
	"atcsim/internal/faultinject"
	"atcsim/internal/mem"
	"atcsim/internal/metrics"
	"atcsim/internal/system"
	"atcsim/internal/trace"
)

// TestQueuedSweepDeterminism pins the queued timing engine's schedule
// independence: the queues experiment (which runs every workload under both
// engines) must render byte-identical reports at jobs=1 and jobs=8 and
// across repeated sweeps — the queued wrappers keep all their state per
// simulation, so concurrency may change only when a run executes, never its
// deques' contents.
func TestQueuedSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("several sweeps")
	}
	sweep := func(jobs int) string {
		r, err := NewRunnerWith(engineScale(), Options{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ByIDWith(r, "queues")
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	want := sweep(1)
	for run, jobs := range []int{1, 8, 8} {
		if got := sweep(jobs); got != want {
			t.Fatalf("sweep %d (jobs=%d) diverged:\n--- want ---\n%s\n--- got ---\n%s",
				run, jobs, want, got)
		}
	}
}

// scrapeQueueCounter sums one cache_queue_* family across its level labels
// in an OpenMetrics scrape body.
func scrapeQueueCounter(t *testing.T, body, family string) uint64 {
	t.Helper()
	var total uint64
	found := false
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		total += uint64(v)
		found = true
	}
	if !found {
		t.Fatalf("/metrics has no %s series", family)
	}
	return total
}

// contentionTrace builds a workload engineered to exercise every queued
// backpressure path at once:
//
//   - a store rotation over 5 lines in one set of a 4KB/4-way L1D: every
//     store misses and evicts exactly the line stored next, so its dirty
//     writeback still sits in the L2 write queue when the demand read
//     arrives — write forwards;
//   - a streaming load phase under a degree-4 next-line prefetcher:
//     consecutive misses emit overlapping candidate sets — prefetch merges;
//   - the stream overflows the shrunken L2 into DRAM, backing the L1D read
//     queue up against its 8 slots and starving the 4/2/4 MSHRs.
func contentionTrace() *trace.Trace {
	b := trace.MustNewBuilder("contention", 60_000)
	rotBase := mem.Addr(0x10_0000)
	streamBase := mem.Addr(0x40_0000)
	streamLines := mem.Addr(1024) // 64KB region, wraps
	var s mem.Addr
	for !b.Full() {
		for k := 0; k < 20; k++ {
			b.Store(1, rotBase+mem.Addr(k%5)*1024) // stride 1KB keeps set 0
		}
		for k := 0; k < 64; k++ {
			b.Load(2, streamBase+(s%streamLines)*64)
			s++
		}
	}
	return b.Build()
}

// TestQueuedContentionMetrics runs the contention trace under a deliberately
// starved queued configuration — tiny L1D, strangled MSHRs, single
// read/write slot per cycle, degree-4 next-line prefetching on the full
// ATP/TEMPO stack — folds the result into a metrics registry, scrapes
// /metrics, and requires every headline backpressure family (rq_full,
// wq_forward, pq_merged, mshr_full) to be nonzero. This is the acceptance
// check that the queued engine's deques observably fill, forward and merge
// on a contention-heavy workload.
func TestQueuedContentionMetrics(t *testing.T) {
	cfg := system.DefaultConfig()
	cfg.Instructions = 30_000
	cfg.Warmup = 5_000
	cfg.Apply(system.TEMPO)
	cfg.Timing = system.TimingQueued
	cfg.L1D.SizeBytes = 4 << 10
	cfg.L1D.Ways = 4
	cfg.L1D.MSHRs = 4
	cfg.L2.SizeBytes = 32 << 10
	cfg.L2.MSHRs = 2
	cfg.LLC.MSHRs = 4
	cfg.L1DPrefetcher = "nextline"
	cfg.PrefetchDegree = 4
	cfg.Queues = &cache.QueueConfig{RQ: 8, WQ: 32, PQ: 16, VAPQ: 16, MaxRead: 1, MaxWrite: 1}
	cfg.CheckInvariants = true
	res, err := system.Run(cfg, contentionTrace())
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	system.NewMetricsSink(reg).Record(res)

	ts := httptest.NewServer((&metrics.Server{Registry: reg}).Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if issues := metrics.Lint(raw); len(issues) > 0 {
		t.Errorf("/metrics does not lint clean: %v", issues)
	}
	for _, family := range []string{
		"cache_queue_rq_full_total",
		"cache_queue_wq_forward_total",
		"cache_queue_pq_merged_total",
		"cache_queue_mshr_full_total",
	} {
		if got := scrapeQueueCounter(t, body, family); got == 0 {
			t.Errorf("%s = 0 on the contention workload, want nonzero", family)
		}
	}
}

// TestChaosQueuedSweep injects a permanent panic into the queues
// experiment's queued run of one benchmark: the sweep must degrade to a
// byte-identical FAILED report at any job count, and a faultless resume on
// the same cache directory must complete with only the missing runs
// recomputed — the queued engine rides the same containment machinery as
// every other experiment.
func TestChaosQueuedSweep(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	sweep := func(jobs int, dir string, plan *faultinject.Plan) (*Runner, string) {
		r, err := NewRunnerWith(Quick(), Options{
			Jobs: jobs, CacheDir: dir, Faults: plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ByIDWith(r, "queues")
		if err != nil {
			t.Fatal(err)
		}
		return r, rep.String()
	}
	rule := faultinject.Rule{
		Site: faultinject.SiteRun, Match: "queues:queued/pr", Kind: faultinject.KindPanic,
	}
	_, outA := sweep(1, dirA, faultinject.NewPlan(1, rule))
	_, outB := sweep(8, dirB, faultinject.NewPlan(1, rule))
	if outA != outB {
		t.Errorf("chaos reports differ between jobs=1 and jobs=8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", outA, outB)
	}
	if !strings.Contains(outA, "FAILED(") || !strings.Contains(outA, "panic") {
		t.Errorf("queues sweep did not degrade to a FAILED report:\n%s", outA)
	}

	rC, outC := sweep(4, dirA, nil)
	if strings.Contains(outC, "FAILED") {
		t.Errorf("resumed queues sweep still failed:\n%s", outC)
	}
	if rC.DiskHits() == 0 || rC.Runs() == 0 {
		t.Errorf("resume DiskHits = %d, Runs = %d; want cached hits plus recomputed remainder",
			rC.DiskHits(), rC.Runs())
	}
}
