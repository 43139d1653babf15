package system

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"atcsim/internal/cache"
	"atcsim/internal/cpu"
	"atcsim/internal/mem"
	"atcsim/internal/metrics"
	"atcsim/internal/telemetry"
)

// Telemetry must be a pure observer: attaching the tracer and an OnTick
// composed of the heartbeat and live gauges must leave the Result
// bit-identical to the bare run, on a single core, an SMT pair and a
// 4-core machine under both timing engines. Threads that keep running past their target count no
// further, so the progress gauge sim_instructions never exceeds
// sim_instructions_total and reaches it at the last tick.
func TestTelemetryDoesNotPerturbTiming(t *testing.T) {
	mcf := buildTrace(t, "mcf", 90_000)
	traces := parTraces(t, 20_000)
	multi := func(cfg Config) (*Result, error) {
		cfg.Instructions, cfg.Warmup = 8_000, 2_000
		return RunMulti(cfg, traces)
	}
	smt := func(cfg Config) (*Result, error) {
		return RunSMT(cfg, buildTrace(t, "pr", 90_000), buildTrace(t, "xalancbmk", 90_000))
	}
	for _, tc := range []struct {
		name   string
		timing string
		run    func(Config) (*Result, error)
	}{
		{"single-core", "", func(cfg Config) (*Result, error) { return Run(cfg, mcf) }},
		{"smt", "", smt},
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
			obs.Tracer = telemetry.NewTracer(1<<12, 8)
			hb := telemetry.NewHeartbeat(nil, telemetry.FormatCSV)
			heartbeat := HeartbeatTick(hb)
			reg := metrics.New()
			gauges := NewLiveGauges(reg)
			var total, stepped []float64
			obs.TickEvery = 2_000
			obs.OnTick = func(r *Result) {
				heartbeat(r)
				gauges.Publish(r)
				series := map[string]float64{}
				for _, s := range reg.Gather() {
					series[s.Name] = s.Value
				}
				total = append(total, series["sim_instructions_total"])
				stepped = append(stepped, series["sim_instructions"])
			}
			traced, err := tc.run(obs)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := resultJSON(t, traced), resultJSON(t, bare); got != want {
				t.Errorf("Result differs with telemetry attached:\n--- bare ---\n%s\n--- observed ---\n%s", want, got)
			}

			// The observer actually observed something.
			if obs.Tracer.Sampled() == 0 || len(obs.Tracer.Events()) == 0 {
				t.Error("tracer recorded nothing")
			}
			if len(hb.Rows()) == 0 {
				t.Error("heartbeat recorded nothing")
			}
			if len(stepped) != len(hb.Rows()) {
				t.Fatalf("OnTick fired %d times for %d heartbeat rows", len(stepped), len(hb.Rows()))
			}
			want := float64(traced.TotalInstructions()) // target × threads
			for i := range stepped {
				if total[i] != want || stepped[i] > total[i] {
					t.Errorf("tick %d: sim_instructions = %v, total = %v; want sim_instructions <= total = %v",
						i, stepped[i], total[i], want)
				}
			}
			if last := len(stepped) - 1; stepped[last] != total[last] {
				t.Errorf("last tick: sim_instructions = %v, want total %v", stepped[last], total[last])
			}
		})
	}
}

// Heartbeat rows must partition the measured phase: instruction counts sum
// to the configured total and end cycles match the final result.
func TestHeartbeatReconcilesWithResult(t *testing.T) {
	cfg := quickCfg() // 60_000 measured instructions
	hb := telemetry.NewHeartbeat(nil, telemetry.FormatCSV)
	cfg.TickEvery, cfg.OnTick = 10_000, HeartbeatTick(hb)
	res, err := Run(cfg, buildTrace(t, "pr", 90_000))
	if err != nil {
		t.Fatal(err)
	}

	rows := hb.Rows()
	if want := cfg.Instructions / cfg.TickEvery; len(rows) != want {
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
	cfg.Tracer = tr
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

// rowCounters are the counters intervalRow reads, for a one-core live
// Result.
type rowCounters struct {
	cycle                         int64
	insts, stlbAcc, stlbMiss      uint64
	leaf, leafDRAM                uint64
	rowHits, rowClosed, rowMisses uint64
	l1dMiss, llcMiss              [mem.NumClasses]uint64
	stalls                        [cpu.NumStallClasses]uint64
}

func (rc rowCounters) result() *Result {
	r := &Result{Cores: make([]CoreResult, 1), L1D: make([]cache.Stats, 1)}
	r.L1D[0].Miss, r.LLC.Miss = rc.l1dMiss, rc.llcMiss
	r.DRAM.RowHits, r.DRAM.RowClosed, r.DRAM.RowMisses = rc.rowHits, rc.rowClosed, rc.rowMisses
	c := &r.Cores[0]
	c.Cycles = rc.cycle
	c.CPU.Instructions = rc.insts
	c.CPU.StallCycles = rc.stalls
	c.MMU.STLBAccesses, c.MMU.STLBMisses = rc.stlbAcc, rc.stlbMiss
	c.Walker.LeafService.Count[mem.LvlL2] = rc.leaf - rc.leafDRAM
	c.Walker.LeafService.Count[mem.LvlDRAM] = rc.leafDRAM
	return r
}

func TestIntervalRowArithmetic(t *testing.T) {
	prev := rowCounters{cycle: 1000, insts: 10_000, stlbAcc: 1000, stlbMiss: 100, leaf: 200, leafDRAM: 20,
		stalls: [cpu.NumStallClasses]uint64{1, 2, 3, 4}}
	prev.l1dMiss[mem.ClassNonReplay], prev.l1dMiss[mem.ClassReplay], prev.l1dMiss[mem.ClassTransLeaf] = 100, 10, 5
	cur := rowCounters{cycle: 3000, insts: 14_000, stlbAcc: 2000, stlbMiss: 350, leaf: 400, leafDRAM: 70,
		rowHits: 60, rowClosed: 20, rowMisses: 20, stalls: [cpu.NumStallClasses]uint64{11, 22, 33, 44}}
	cur.l1dMiss[mem.ClassNonReplay], cur.l1dMiss[mem.ClassReplay] = 180, 30
	cur.l1dMiss[mem.ClassTransLeaf] = 500 // excluded from demand
	cur.llcMiss[mem.ClassReplay], cur.llcMiss[mem.ClassTransLeaf] = 8, 4

	r := intervalRow(sumRow(prev.result()), sumRow(cur.result()))
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if r.EndCycle != 3000 || r.Cycles != 2000 || r.Instructions != 4000 {
		t.Fatalf("identity fields wrong: %+v", r)
	}
	approx("IPC", r.IPC, 4000.0/2000.0)
	approx("L1DMPKI", r.L1DMPKI, 1000*float64(80+20)/4000)
	approx("LLCReplayMPKI", r.LLCReplayMPKI, 1000*8.0/4000)
	approx("LLCLeafMPKI", r.LLCLeafMPKI, 1000*4.0/4000)
	approx("STLBMissRate", r.STLBMissRate, 250.0/1000)
	approx("STLBMPKI", r.STLBMPKI, 1000*250.0/4000)
	approx("TransHitRate", r.TransHitRate, (200.0-50.0)/200.0)
	approx("DRAMRowHitRate", r.DRAMRowHitRate, 60.0/100)
	if r.StallTranslation != 10 || r.StallReplay != 20 || r.StallNonReplay != 30 || r.StallOther != 40 {
		t.Fatalf("stall deltas wrong: %+v", r)
	}
}

func TestIntervalRowZeroDenominators(t *testing.T) {
	empty := sumRow(rowCounters{}.result())
	r := intervalRow(empty, empty)
	for name, v := range map[string]float64{
		"IPC": r.IPC, "L1DMPKI": r.L1DMPKI, "STLBMissRate": r.STLBMissRate,
		"TransHitRate": r.TransHitRate, "DRAMRowHitRate": r.DRAMRowHitRate,
	} {
		if v != 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v on empty interval, want 0", name, v)
		}
	}
}
