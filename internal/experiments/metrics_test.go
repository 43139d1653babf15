package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"atcsim/internal/experiments/runner"
	"atcsim/internal/faultinject"
	"atcsim/internal/metrics"
	"atcsim/internal/system"
)

// TestMetricsEndpointsAfterSweep drives a small sweep with the registry
// attached and scrapes the three live endpoints: /metrics must be
// OpenMetrics-clean with the full cross-subsystem series set, /runs must
// show every run key in a terminal state, and /healthz must report ok.
func TestMetricsEndpointsAfterSweep(t *testing.T) {
	reg := metrics.New()
	rec := metrics.NewFlightRecorder(0)
	r, err := NewRunnerWith(engineScale(), Options{Jobs: 2, Metrics: reg, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Cancel()
	for _, w := range []string{"xalancbmk", "pr"} {
		if _, err := r.TryRun("baseline", w, nil); err != nil {
			t.Fatal(err)
		}
	}

	ts := httptest.NewServer((&metrics.Server{
		Registry: reg, Runs: r.RunsTable(), Recorder: rec,
	}).Handler())
	defer ts.Close()
	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status = %d", code)
	}
	if issues := metrics.Lint([]byte(body)); len(issues) > 0 {
		t.Errorf("/metrics does not lint clean: %v", issues)
	}
	if n := reg.Len(); n < 25 {
		t.Errorf("registered series = %d, want >= 25", n)
	}
	// One representative series per subsystem: cache, TLB, PSC, walker,
	// DRAM, prefetcher, CPU and the runner itself.
	for _, want := range []string{
		`cache_accesses_total{class="non-replay",level="llc"}`,
		`tlb_misses_total{kind="stlb"}`,
		"psc_lookups_total",
		"ptw_walks_total",
		"dram_reads_total",
		`prefetch_issued_total{level="l2"}`,
		`cpu_stall_cycles_total{class="translation"}`,
		`runner_runs_total{outcome="ok"} 2`,
		`runner_run_states{state="done"} 2`,
		"flightrecorder_events_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Each run is one attempt: no retry series.
	for _, gone := range []string{"runner_retries_total", `state="retrying"`} {
		if strings.Contains(body, gone) {
			t.Errorf("/metrics still exposes %s", gone)
		}
	}

	code, body = get("/healthz")
	if code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body = get("/runs")
	if code != 200 {
		t.Fatalf("/runs status = %d", code)
	}
	var runs struct {
		Counts map[string]int `json:"counts"`
		Runs   []struct {
			Key   string `json:"key"`
			State string `json:"state"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(body), &runs); err != nil {
		t.Fatalf("/runs is not JSON: %v\n%s", err, body)
	}
	if runs.Counts["done"] != 2 || len(runs.Runs) != 2 {
		t.Errorf("/runs = %+v", runs)
	}
	if strings.Contains(body, `"attempts"`) {
		t.Errorf("/runs still carries attempt counts:\n%s", body)
	}
	for _, ri := range runs.Runs {
		if ri.State != "done" || !strings.HasPrefix(ri.Key, "baseline/") {
			t.Errorf("run entry = %+v", ri)
		}
	}

	code, body = get("/flightrecorder")
	if code != 200 || !strings.Contains(body, `"kind":"run-done"`) {
		t.Errorf("/flightrecorder = %d %q", code, body)
	}
}

// TestRunStatesCountSlotHolders submits five runs whose simulations block
// to a runner at Jobs 2. Only the two runs holding a pool slot may read as
// running (and have a run-started event); the three waiting for a slot
// must read as queued.
func TestRunStatesCountSlotHolders(t *testing.T) {
	const runs, jobs = 5, 2
	rec := metrics.NewFlightRecorder(64)
	r, err := NewRunnerWith(engineScale(), Options{Jobs: jobs, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Cancel()
	release := make(chan struct{})
	started := make(chan struct{}, runs)
	sim := func() (*system.Result, error) {
		started <- struct{}{}
		<-release
		return new(system.Result), nil
	}
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("blocked-%d", i)
			if _, _, err := r.cached(r.ctx, 0, "gauges", name, false, runner.KindSingle,
				[]string{name}, []int64{1}, system.DefaultConfig(), sim); err != nil {
				t.Errorf("run %s: %v", name, err)
			}
		}()
	}
	defer wg.Wait()
	defer close(release)

	for range jobs {
		<-started
	}
	// Wait until every run has entered the table; none can finish.
	var counts map[metrics.RunState]int
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		_, counts = r.runsTable.Snapshot()
		if counts[metrics.StateQueued]+counts[metrics.StateRunning] == runs || time.Now().After(deadline) {
			break
		}
	}
	if counts[metrics.StateRunning] != jobs || counts[metrics.StateQueued] != runs-jobs {
		t.Errorf("with %d runs blocked at Jobs %d: %d running, %d queued; want %d and %d",
			runs, jobs, counts[metrics.StateRunning], counts[metrics.StateQueued], jobs, runs-jobs)
	}
	var dump bytes.Buffer
	if _, err := rec.WriteTo(&dump); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(dump.String(), `"kind":"run-started"`); got != jobs {
		t.Errorf("%d run-started events before any run finished, want %d:\n%s", got, jobs, dump.String())
	}
}

// TestFlightRecorderDeterministicAcrossJobs injects an identity-matched
// fault plan (one panic, one I/O error that would heal on a second
// consultation) into concurrent
// sweeps at jobs=1 and jobs=8 and asserts the canonical flight-recorder
// dumps are byte-identical — events carry no timestamps and fault rules
// match stable run identities, so the schedule cannot leak in.
func TestFlightRecorderDeterministicAcrossJobs(t *testing.T) {
	sweep := func(jobs int, sink string) string {
		rec := metrics.NewFlightRecorder(4096)
		rec.SetSink(sink)
		plan := faultinject.NewPlan(1,
			faultinject.Rule{Site: faultinject.SiteRun, Match: "tempo/pr",
				Kind: faultinject.KindPanic},
			faultinject.Rule{Site: faultinject.SiteRun, Match: "baseline/xalancbmk",
				Kind: faultinject.KindIOErr, Until: 1},
		)
		r, err := NewRunnerWith(engineScale(), Options{
			Jobs: jobs, Faults: plan, Recorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Cancel()
		var wg sync.WaitGroup
		for _, label := range []string{"baseline", "tempo"} {
			for _, w := range []string{"xalancbmk", "pr"} {
				wg.Add(1)
				go func(label, w string) {
					defer wg.Done()
					var mod func(*system.Config)
					if label == "tempo" {
						mod = func(c *system.Config) { c.Apply(system.TEMPO) }
					}
					_, _ = r.TryRun(label, w, mod) // tempo/pr and baseline/xalancbmk fail by design
				}(label, w)
			}
		}
		wg.Wait()
		var buf bytes.Buffer
		if _, err := rec.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	sinkA := filepath.Join(t.TempDir(), "fr.jsonl")
	dumpA := sweep(1, sinkA)
	dumpB := sweep(8, "")
	if dumpA != dumpB {
		t.Errorf("canonical dumps differ between jobs=1 and jobs=8:\n--- jobs=1 ---\n%s--- jobs=8 ---\n%s", dumpA, dumpB)
	}
	for _, want := range []string{
		`"kind":"run-started","run":"tempo/pr"`,
		`"kind":"fault-injected","run":"tempo/pr"`,
		`"kind":"run-failed","run":"tempo/pr"`,
		`"kind":"panic","run":"tempo/pr"`,
		`"kind":"fault-injected","run":"baseline/xalancbmk","attempt":1`,
		`"kind":"run-failed","run":"baseline/xalancbmk"`,
		`"kind":"run-done","run":"baseline/pr"`,
	} {
		if !strings.Contains(dumpA, want) {
			t.Errorf("dump missing %s:\n%s", want, dumpA)
		}
	}
	// One attempt per run: the healing rule fires once and nothing retries.
	for _, absent := range []string{`"run-retried"`, `"run-done","run":"baseline/xalancbmk"`} {
		if strings.Contains(dumpA, absent) {
			t.Errorf("dump holds %s:\n%s", absent, dumpA)
		}
	}

	// The permanent failure must have dumped the post-mortem to the sink.
	raw, err := os.ReadFile(sinkA)
	if err != nil {
		t.Fatalf("no flight-recorder dump on permanent failure: %v", err)
	}
	if !strings.Contains(string(raw), `"kind":"run-failed"`) {
		t.Errorf("sink dump missing the failure:\n%s", raw)
	}
}
