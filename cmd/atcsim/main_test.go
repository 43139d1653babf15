package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// buildAtcsim builds the real binary into a temporary directory. The tests
// here are deliberately process-level: usageFail calls os.Exit, and the
// live-metrics wiring lives in main.
func buildAtcsim(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary in PATH")
	}
	bin := filepath.Join(t.TempDir(), "atcsim")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestTimingFlagValidation checks the -timing contract end to end: an
// unknown timing model is a usage error — exit 2 with the registered names
// listed — while a registered one runs.
func TestTimingFlagValidation(t *testing.T) {
	bin := buildAtcsim(t)

	out, err := exec.Command(bin, "-timing", "warp", "-workload", "pr").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("-timing warp: err = %v, want non-zero exit; output:\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Errorf("-timing warp: exit code = %d, want 2 (usage error)", code)
	}
	for _, want := range []string{"unknown timing model", "analytic", "queued"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("-timing warp: stderr lacks %q:\n%s", want, out)
		}
	}

	out, err = exec.Command(bin, "-timing", "queued", "-workload", "pr",
		"-instructions", "2000", "-warmup", "500").CombinedOutput()
	if err != nil {
		t.Fatalf("-timing queued run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "queues ") {
		t.Errorf("queued run report has no queues lines:\n%s", out)
	}
}

// TestTelemetryFlagRanges checks that every telemetry knob is range-checked
// whenever the facility that reads it is on: a live surface (-metrics-log,
// -metrics-addr) runs on a heartbeat and so reads -interval,
// and -trace-out reads -trace-sample and -trace-buf. Each bad value exits 1
// with the flag named, before any file is written or address bound; the
// same values with their facility off are never read and the run succeeds.
func TestTelemetryFlagRanges(t *testing.T) {
	bin := buildAtcsim(t)
	run := []string{"-workload", "pr", "-instructions", "2000", "-warmup", "500"}
	for _, tc := range []struct {
		args []string
		flag string // "" means the run must succeed
	}{
		{[]string{"-interval-stats", "h.csv", "-interval", "0"}, "-interval"},
		{[]string{"-metrics-log", "m.jsonl", "-interval", "0"}, "-interval"},
		{[]string{"-metrics-addr", "127.0.0.1:0", "-interval", "-5"}, "-interval"},
		{[]string{"-trace-out", "t.json", "-trace-sample", "0"}, "-trace-sample"},
		{[]string{"-trace-out", "t.json", "-trace-buf", "-1"}, "-trace-buf"},
		{[]string{"-interval", "0", "-trace-sample", "0", "-trace-buf", "0"}, ""},
	} {
		name := strings.Join(tc.args, " ")
		dir := t.TempDir()
		cmd := exec.Command(bin, append(slices.Clone(run), tc.args...)...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if tc.flag == "" {
			if err != nil {
				t.Errorf("%s: %v\n%s", name, err, out)
			}
			continue
		}
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Errorf("%s: err = %v, want exit 1; output:\n%s", name, err, out)
			continue
		}
		if want := tc.flag + " must be positive"; !strings.Contains(string(out), want) {
			t.Errorf("%s: output lacks %q:\n%s", name, want, out)
		}
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Errorf("%s: rejected run left %d files behind", name, len(files))
		}
	}
}

// liveSeries is every series a -metrics-log line must carry.
var liveSeries = []string{
	"sim_instructions_total", "sim_instructions", "sim_cycle",
	`sim_cache_demand_misses{level="l1d"}`, `sim_cache_demand_misses{level="l2"}`,
	`sim_cache_demand_misses{level="llc"}`,
	"sim_stlb_accesses", "sim_stlb_misses", "sim_leaf_pte_reads", "sim_leaf_pte_dram",
	"sim_dram_reads", "sim_dram_row_hits",
	`sim_stall_cycles{class="translation"}`, `sim_stall_cycles{class="replay"}`,
	`sim_stall_cycles{class="non-replay"}`, `sim_stall_cycles{class="other"}`,
}

// TestLiveMetricsLog runs atcsim with -metrics-log and -interval-stats on a
// single core and on two cores, and checks the two streams agree: one
// metrics line per heartbeat row, every sim_* series on every line, the
// last line's sim_instructions equal to the rows' instruction sum, and
// progress complete (sim_instructions == sim_instructions_total) at the
// last tick.
func TestLiveMetricsLog(t *testing.T) {
	bin := buildAtcsim(t)
	for _, tc := range []struct {
		name  string
		args  []string
		cores float64
	}{
		{"single-core", []string{"-workload", "pr"}, 1},
		{"2-core", []string{"-multi", "pr,mcf"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(bin, append(tc.args, "-instructions", "20000", "-warmup", "5000",
				"-interval", "5000", "-metrics-log", "m.jsonl", "-interval-stats", "hb.csv")...)
			cmd.Dir = dir
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("atcsim failed: %v\n%s", err, out)
			}

			rows := readCSV(t, filepath.Join(dir, "hb.csv"))
			col := -1
			for i, h := range rows[0] {
				if h == "instructions" {
					col = i
				}
			}
			if col < 0 {
				t.Fatalf("heartbeat CSV has no instructions column: %v", rows[0])
			}
			var rowInsts float64
			for _, r := range rows[1:] {
				n, err := strconv.ParseFloat(r[col], 64)
				if err != nil {
					t.Fatal(err)
				}
				rowInsts += n
			}

			lines := readJSONL(t, filepath.Join(dir, "m.jsonl"))
			if len(lines) != len(rows)-1 {
				t.Fatalf("%d metrics lines for %d heartbeat rows", len(lines), len(rows)-1)
			}
			for i, series := range lines {
				for _, name := range liveSeries {
					if _, ok := series[name]; !ok {
						t.Errorf("line %d lacks %s", i, name)
					}
				}
			}
			last := lines[len(lines)-1]
			if got := last["sim_instructions"]; got != rowInsts {
				t.Errorf("last sim_instructions = %v, heartbeat rows sum to %v", got, rowInsts)
			}
			if want := 20000 * tc.cores; last["sim_instructions_total"] != want {
				t.Errorf("sim_instructions_total = %v, want %v", last["sim_instructions_total"], want)
			}
			if done, total := last["sim_instructions"], last["sim_instructions_total"]; done != total {
				t.Errorf("last sim_instructions = %v, want sim_instructions_total %v", done, total)
			}
		})
	}
}

// readCSV reads a whole CSV file, header first.
func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("%s has no rows", path)
	}
	return rows
}

// readJSONL decodes the series map of every metrics snapshot line.
func readJSONL(t *testing.T, path string) []map[string]float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []map[string]float64
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Snapshot int                `json:"snapshot"`
			Series   map[string]float64 `json:"series"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("metrics line %d: %v", len(out), err)
		}
		if line.Snapshot != len(out) {
			t.Errorf("metrics line %d has snapshot %d", len(out), line.Snapshot)
		}
		out = append(out, line.Series)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("%s is empty", path)
	}
	return out
}
