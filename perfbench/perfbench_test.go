package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"atcsim/internal/faultinject"
)

// TestMain lets the test binary stand in for the perfbench command when a
// run starts its fresh set-up child processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func allMetrics() []metricDef { return append(append([]metricDef(nil), endToEnd...), perLayer...) }

func TestNamesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloadNames {
		if !nameRE.MatchString(w) || seen[w] {
			t.Errorf("workload name %q is malformed or repeated", w)
		}
		seen[w] = true
	}
	for _, d := range allMetrics() {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: malformed unit %q", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %s: better is %q", d.name, d.better)
		}
		for _, w := range d.on {
			if !slices.Contains(workloadNames, w) {
				t.Errorf("metric %s: unknown workload %q", d.name, w)
			}
		}
	}
	for _, d := range endToEnd {
		if !(d.bound > 0 && d.bound <= 0.25) {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json in step with the
// metrics the command emits.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(b.Command, " "); got != "bash perfbench/run.sh" {
		t.Errorf("command %q", got)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("paths %q", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, the command has %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q with why %q", i, w.Name, w.Why)
		}
	}
	check := func(set string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the command emits %d", set, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the command %+v", set, i, g, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

func TestREADMEDefinesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range allMetrics() {
		if !bytes.Contains(raw, []byte("`"+d.name+"`")) {
			t.Errorf("README.md does not define %s", d.name)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "xlat-light", "--trace", "2"},
		{"--workload", "xlat-light", "--seconds", "0"},
		{"--workload", "xlat-light", "--scale", "huge"},
		{"--workload", "xlat-light", "extra"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("perfbench %q: exit %d, want 2", args, code)
		}
	}
}

// runCommand runs the command in-process and decodes its last output line.
func runCommand(t *testing.T, args ...string) (resultOut, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("perfbench %q: exit %d: %s", args, code, errOut.String())
	}
	text := strings.TrimSpace(out.String())
	last := text[strings.LastIndex(text, "\n")+1:]
	var r resultOut
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	return r, text
}

// TestEveryWorkloadEmitsItsMetrics runs each workload untraced and traced
// at the tiny scale: every metric of the set must be there with its unit,
// every end-to-end value must be positive, and no op may fail.
func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			defs, flag := endToEnd, "0"
			if traced {
				defs, flag = perLayer, "1"
			}
			t.Run(w+"/trace="+flag, func(t *testing.T) {
				r, text := runCommand(t, "--workload", w, "--seed", "3", "--seconds", "1", "--trace", flag,
					"--scale", "tiny", "--work-dir", dir)
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d\n%s", r.Correct, r.Failed, r.Attempted, text)
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					got, ok := r.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("%s missing", d.name)
					case got.Unit != d.unit:
						t.Errorf("%s: unit %q, want %q", d.name, got.Unit, d.unit)
					case !traced && !(got.Value > 0):
						t.Errorf("end-to-end %s = %v, want > 0", d.name, got.Value)
					}
				}
				if !strings.Contains(text, w+": failed/attempted = 0/") {
					t.Errorf("no failed/attempted line:\n%s", text)
				}
				if !traced {
					return
				}
				if !strings.Contains(text, "attribution ") {
					t.Errorf("no attribution printout:\n%s", text)
				}
				raw, err := os.ReadFile(filepath.Join(dir, "trace-"+w+"-3.json"))
				if err != nil {
					t.Fatal(err)
				}
				var tr struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal(raw, &tr); err != nil || len(tr.TraceEvents) == 0 {
					t.Errorf("trace file: %d events, err %v", len(tr.TraceEvents), err)
				}
			})
		}
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	sc := scales["tiny"]
	for _, name := range []string{"xlat-light", "queued-mix"} {
		w := simWorkloads[name]
		digestAt := func(seed int64) string {
			traces, err := w.synth(sc, seed, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			return tracesDigest(traces)
		}
		if a, b := digestAt(5), digestAt(5); a != b {
			t.Errorf("%s: seed 5 built different traces", name)
		}
		if digestAt(5) == digestAt(6) {
			t.Errorf("%s: seeds 5 and 6 built the same traces", name)
		}
	}
	if newPlan(5, 3).digest() != newPlan(5, 3).digest() {
		t.Error("seed 5 gave different service plans")
	}
	if newPlan(5, 3).digest() == newPlan(6, 3).digest() {
		t.Error("seeds 5 and 6 gave the same service plan")
	}
}

// TestServiceFaultsAreFailedOps injects faults into the service: a result
// corrupted on its way to the disk cache and a panicking run must each
// count as failed ops, not pass silently.
func TestServiceFaultsAreFailedOps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service workload")
	}
	o := options{workload: "service", seed: 2, seconds: 3, scale: scales["tiny"], workDir: t.TempDir(), out: io.Discard}

	// A cold request whose benchmark is warm only at TEMPO, so its baseline
	// run identity matches no prime request.
	p := newPlan(o.seed, o.seconds)
	warmAt := map[string]string{}
	for _, q := range p.warmKeys {
		warmAt[q.Workload] = q.Enhancement
	}
	var victim string
	for _, q := range p.cold {
		if warmAt[q.body.Workload] != "baseline" {
			victim = q.body.Workload
			break
		}
	}
	if victim == "" {
		t.Fatal("the plan has no cold request to fault")
	}

	for name, rule := range map[string]faultinject.Rule{
		"corrupt": {Site: faultinject.SiteDiskEntry, Kind: faultinject.KindCorrupt},
		"panic":   {Site: faultinject.SiteRun, Match: "svc:baseline/" + victim, Kind: faultinject.KindPanic},
	} {
		t.Run(name, func(t *testing.T) {
			plan := faultinject.NewPlan(1, rule)
			rep, err := runServiceWith(o, plan)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Fired(rule.Kind) == 0 {
				t.Fatal("the fault never fired")
			}
			if rep.failed == 0 {
				t.Errorf("%d faults fired but 0 of %d ops failed", plan.Fired(rule.Kind), rep.attempted)
			}
		})
	}
}
