package system

import (
	"bytes"
	"encoding/json"
	"testing"

	"atcsim/internal/telemetry"
)

// Telemetry must be a pure observer: attaching the full hub (tracer +
// heartbeat + progress) must leave the Result bit-identical to the bare
// run, on a single core and on a 4-core machine under both timing engines.
func TestTelemetryDoesNotPerturbTiming(t *testing.T) {
	mcf := buildTrace(t, "mcf", 90_000)
	traces := parTraces(t, 20_000)
	multi := func(cfg Config) (*Result, error) {
		cfg.Instructions, cfg.Warmup = 8_000, 2_000
		return RunMulti(cfg, traces)
	}
	for _, tc := range []struct {
		name   string
		timing string
		run    func(Config) (*Result, error)
	}{
		{"single-core", "", func(cfg Config) (*Result, error) { return Run(cfg, mcf) }},
		{"4-core", "", multi},
		{"4-core-queued", "queued", multi},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg()
			cfg.Timing = tc.timing
			bare, err := tc.run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			obs := cfg
			obs.Telemetry = &telemetry.Hub{
				Tracer:    telemetry.NewTracer(1<<12, 8),
				Heartbeat: telemetry.NewHeartbeat(nil, telemetry.FormatCSV, 2_000),
				Progress:  &telemetry.Progress{},
			}
			traced, err := tc.run(obs)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := resultJSON(t, traced), resultJSON(t, bare); got != want {
				t.Errorf("Result differs with telemetry attached:\n--- bare ---\n%s\n--- observed ---\n%s", want, got)
			}

			// The observer actually observed something.
			hub := obs.Telemetry
			if hub.Tracer.Sampled() == 0 || len(hub.Tracer.Events()) == 0 {
				t.Error("tracer recorded nothing")
			}
			if len(hub.Heartbeat.Rows()) == 0 {
				t.Error("heartbeat recorded nothing")
			}
			if got, want := hub.Progress.Done(), hub.Progress.Total(); got < want || want == 0 {
				t.Errorf("progress done = %d, want at least total %d", got, want)
			}
		})
	}
}

// Heartbeat rows must partition the measured phase: instruction counts sum
// to the configured total and end cycles match the final result.
func TestHeartbeatReconcilesWithResult(t *testing.T) {
	cfg := quickCfg() // 60_000 measured instructions
	hb := telemetry.NewHeartbeat(nil, telemetry.FormatCSV, 10_000)
	cfg.Telemetry = &telemetry.Hub{Heartbeat: hb}
	res, err := Run(cfg, buildTrace(t, "pr", 90_000))
	if err != nil {
		t.Fatal(err)
	}

	rows := hb.Rows()
	if want := cfg.Instructions / hb.Every(); len(rows) != want {
		t.Fatalf("got %d heartbeat rows, want %d", len(rows), want)
	}
	var insts uint64
	var stalls uint64
	for i, r := range rows {
		if r.Index != i {
			t.Errorf("row %d has index %d", i, r.Index)
		}
		if r.Cycles <= 0 || r.IPC <= 0 {
			t.Errorf("row %d empty: %+v", i, r)
		}
		insts += r.Instructions
		stalls += r.StallTranslation + r.StallReplay + r.StallNonReplay + r.StallOther
	}
	if insts != uint64(cfg.Instructions) {
		t.Errorf("heartbeat instructions sum to %d, want %d", insts, cfg.Instructions)
	}
	last := rows[len(rows)-1]
	if last.EndCycle != res.Cores[0].Cycles {
		t.Errorf("last row ends at cycle %d, result has %d cycles", last.EndCycle, res.Cores[0].Cycles)
	}
	var wantStalls uint64
	for _, s := range res.Cores[0].CPU.StallCycles {
		wantStalls += s
	}
	if stalls != wantStalls {
		t.Errorf("heartbeat stall cycles sum to %d, result has %d", stalls, wantStalls)
	}
	// pr thrashes the STLB: the derived rates must reflect that.
	if last.STLBMPKI <= 1 {
		t.Errorf("pr STLB MPKI %.2f suspiciously low in heartbeat", last.STLBMPKI)
	}
}

// A trace produced by a real run must be valid Chrome trace-event JSON with
// events on every lane the pr workload exercises.
func TestRunProducesLoadableChromeTrace(t *testing.T) {
	cfg := quickCfg()
	tr := telemetry.NewTracer(1<<14, 16)
	cfg.Telemetry = &telemetry.Hub{Tracer: tr}
	if _, err := Run(cfg, buildTrace(t, "pr", 90_000)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("run trace is not valid JSON: %v", err)
	}
	lanes := map[int]int{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "M" {
			lanes[ev.Tid]++
		}
	}
	for lane := telemetry.LaneRequest; lane <= telemetry.LaneStall; lane++ {
		if lanes[int(lane)] == 0 {
			t.Errorf("no events on lane %v", lane)
		}
	}
}
