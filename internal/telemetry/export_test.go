package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"atcsim/internal/metrics"
)

// TestHeartbeatJSONLFieldPresence decodes raw JSONL heartbeat lines and
// asserts every documented field is actually present (a Row-struct decode
// would silently zero-fill missing keys) and that interval indices increase
// monotonically from zero.
func TestHeartbeatJSONLFieldPresence(t *testing.T) {
	var buf bytes.Buffer
	hb := NewHeartbeat(&buf, FormatJSONL)
	for i := 1; i <= 4; i++ {
		hb.Tick(Row{
			EndCycle:     int64(i) * 2000,
			Cycles:       2000,
			Instructions: 1000,
			STLBMissRate: 0.1,
			STLBMPKI:     30,
		})
	}
	if err := hb.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"interval", "end_cycle", "cycles", "instructions", "ipc",
		"l1d_mpki", "l2_mpki", "llc_mpki", "llc_replay_mpki", "llc_leaf_mpki",
		"stlb_miss_rate", "stlb_mpki", "trans_hit_rate",
		"stall_translation", "stall_replay", "stall_nonreplay", "stall_other",
		"dram_row_hit_rate",
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), buf.String())
	}
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		for _, k := range want {
			if _, ok := m[k]; !ok {
				t.Errorf("line %d missing field %q: %s", i, k, ln)
			}
		}
		if idx, ok := m["interval"].(float64); !ok || int(idx) != i {
			t.Errorf("line %d interval = %v, want %d (monotonic from 0)", i, m["interval"], i)
		}
	}
}

// TestHealthRegisterMetrics checks the registry view reads the same atomics
// the engine bumps — no second copy, no drift.
func TestHealthRegisterMetrics(t *testing.T) {
	h := new(Health)
	reg := metrics.New()
	h.RegisterMetrics(reg)
	h.Runs.Add(7)
	h.Failures.Add(2)

	got := map[string]float64{}
	for _, s := range reg.Gather() {
		got[s.Name] = s.Value
	}
	for name, want := range map[string]float64{
		`runner_runs_total{outcome="ok"}`:     7,
		`runner_runs_total{outcome="failed"}`: 2,
		"runner_panics_total":                 0,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	h.Runs.Add(1)
	for _, s := range reg.Gather() {
		if s.Name == `runner_runs_total{outcome="ok"}` && s.Value != 8 {
			t.Errorf("registry did not track live counter: %v", s.Value)
		}
	}
}
