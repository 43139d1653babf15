package atcsim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden snapshots")

// TestGoldenReports runs one small seeded workload per benchmark family
// (SPEC CPU2017, PARSEC, Ligra) through the full machine at the paper's
// TEMPO enhancement level with invariant auditing enabled, and compares the
// complete stats report byte-for-byte against testdata/golden/. Any
// unintended change to timing, stats plumbing or report formatting shows up
// as a golden diff; intended changes re-snapshot with `go test -update`.
func TestGoldenReports(t *testing.T) {
	families := []struct {
		family, workload string
	}{
		{"spec", "xalancbmk"},
		{"parsec", "canneal"},
		{"ligra", "pr"},
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam.workload, func(t *testing.T) {
			t.Parallel()
			tr, err := NewTrace(fam.workload, 25_000, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Instructions = 20_000
			cfg.Warmup = 5_000
			cfg.Apply(TEMPO)
			cfg.CheckInvariants = true
			res, err := Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			WriteReport(&buf, res)

			path := filepath.Join("testdata", "golden", fam.workload+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test -update` to create snapshots)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("report for %s diverged from %s.\ngot:\n%s\nwant:\n%s\n(rerun with -update if the change is intended)",
					fam.workload, path, buf.Bytes(), want)
			}
		})
	}
}

// TestGoldenQueuedReports pins the queued timing engine's report: the same
// workload as the analytic "pr" golden, run with Config.Timing = "queued",
// including the per-level queue backpressure lines. This baseline is set
// deliberately (there is no external reference for queued-mode cycle counts
// or queue occupancies); re-baselining requires `go test -update` plus a
// CHANGES.md note, while the analytic goldens above must stay untouched.
func TestGoldenQueuedReports(t *testing.T) {
	tr, err := NewTrace("pr", 25_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Instructions = 20_000
	cfg.Warmup = 5_000
	cfg.Apply(TEMPO)
	cfg.Timing = TimingQueued
	cfg.CheckInvariants = true
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queues) == 0 {
		t.Fatal("queued run collected no queue statistics")
	}
	var buf bytes.Buffer
	WriteReport(&buf, res)

	path := filepath.Join("testdata", "golden", "pr-queued.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -update` to create snapshots)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("queued report diverged from %s.\ngot:\n%s\nwant:\n%s\n(rerun with -update if the change is intended)",
			path, buf.Bytes(), want)
	}
}

// TestGoldenMechanismReports pins the per-mechanism report sections: the
// victima and revelator lines in WriteReport are baselined deliberately
// (there is no external reference for their exact counts), while the default
// atp mechanism must keep the TestGoldenReports snapshots above untouched.
// Same -update convention as the figure goldens.
func TestGoldenMechanismReports(t *testing.T) {
	for _, mech := range []string{"victima", "revelator"} {
		mech := mech
		t.Run(mech, func(t *testing.T) {
			t.Parallel()
			tr, err := NewTrace("pr", 25_000, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Instructions = 20_000
			cfg.Warmup = 5_000
			cfg.Apply(TEMPO)
			cfg.Mechanism = mech
			cfg.CheckInvariants = true
			res, err := Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			WriteReport(&buf, res)

			path := filepath.Join("testdata", "golden", "pr-"+mech+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test -update` to create snapshots)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s report diverged from %s.\ngot:\n%s\nwant:\n%s\n(rerun with -update if the change is intended)",
					mech, path, buf.Bytes(), want)
			}
		})
	}
}

// TestGoldenMultiCoreReports pins the barrier-parallel multi-core engine: a
// 4-core pr,mcf,cc,xalancbmk mix at TEMPO, one seed per core, run under both
// timing engines with invariant auditing on. SimJobs is fixed at 1; the
// determinism tests hold every other value to the same bytes. The queued
// variant covers the shared LLC's queued wrapper behind the portals and the
// per-level backpressure lines; both report the schedule's "parallel" line.
// Same -update convention as the goldens above.
func TestGoldenMultiCoreReports(t *testing.T) {
	for _, timing := range []string{TimingAnalytic, TimingQueued} {
		timing := timing
		t.Run(timing, func(t *testing.T) {
			t.Parallel()
			var traces []*Trace
			for i, name := range []string{"pr", "mcf", "cc", "xalancbmk"} {
				tr, err := NewTrace(name, 25_000, int64(1+i))
				if err != nil {
					t.Fatal(err)
				}
				traces = append(traces, tr)
			}
			cfg := DefaultConfig()
			cfg.Instructions = 20_000
			cfg.Warmup = 5_000
			cfg.Apply(TEMPO)
			cfg.Timing = timing
			cfg.SimJobs = 1
			cfg.CheckInvariants = true
			res, err := RunMulti(cfg, traces...)
			if err != nil {
				t.Fatal(err)
			}
			if res.Parallel == nil {
				t.Fatal("multi-core run did not use the barrier-parallel engine")
			}
			var buf bytes.Buffer
			WriteReport(&buf, res)

			path := filepath.Join("testdata", "golden", "multi-"+timing+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test -update` to create snapshots)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s multi-core report diverged from %s.\ngot:\n%s\nwant:\n%s\n(rerun with -update if the change is intended)",
					timing, path, buf.Bytes(), want)
			}
		})
	}
}
