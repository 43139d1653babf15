package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"atcsim/internal/mem"
)

// A nil tracer must be safe and inert at every entry point: the simulator
// threads hooks through unconditionally and relies on nil receivers.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() || tr.Active() {
		t.Fatal("nil tracer reports enabled/active")
	}
	if tr.BeginSample(0, "load", 1, 2, 3) {
		t.Fatal("nil tracer sampled a request")
	}
	tr.EndSample("load", 10)
	tr.Span("c", "n", LaneCache, 0, 5)
	tr.SpanOn(1, "c", "n", LaneDRAM, 0, 5)
	tr.Instant("c", "n", LaneMMU)
	tr.StallSpan(0, "other", 0, 100)
	tr.Resume(tr.Suspend())
	if tr.Sampled() != 0 || tr.Dropped() != 0 || tr.Events() != nil || tr.Now() != 0 {
		t.Fatal("nil tracer retained state")
	}
	var hub *Hub
	if hub.TracerOrNil() != nil || hub.HeartbeatOrNil() != nil || hub.ProgressOrNil() != nil {
		t.Fatal("nil hub returned a facility")
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(1024, 4)
	sampled := 0
	for i := 0; i < 40; i++ {
		if tr.BeginSample(0, "load", mem.Addr(i), mem.Addr(i), int64(i)) {
			sampled++
			if !tr.Active() {
				t.Fatalf("instruction %d: sampled but not active", i)
			}
			tr.Span("cache", "L1D", LaneCache, int64(i), int64(i)+5)
			tr.EndSample("load", int64(i)+10)
			if tr.Active() {
				t.Fatalf("instruction %d: active after EndSample", i)
			}
		} else if tr.Active() {
			t.Fatalf("instruction %d: active without sample", i)
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 40 at 1-in-4, want 10", sampled)
	}
	if got := tr.Sampled(); got != 10 {
		t.Fatalf("Sampled() = %d, want 10", got)
	}
	// Each sampled request emits begin-instant + cache span + enclosing span.
	if got := len(tr.Events()); got != 30 {
		t.Fatalf("retained %d events, want 30", got)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped() = %d with a non-full ring", tr.Dropped())
	}
}

// Events outside an active sample window must not be recorded (that is the
// whole allocation-free disabled path), except StallSpan which is unsampled.
func TestTracerGatesOnActiveWindow(t *testing.T) {
	tr := NewTracer(64, 2)
	tr.Span("cache", "L1D", LaneCache, 0, 5)
	tr.Instant("mmu", "evict", LaneMMU)
	if len(tr.Events()) != 0 {
		t.Fatal("events recorded outside a sample window")
	}
	tr.StallSpan(0, "translation", 100, 150)
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Name != "stall:translation" || evs[0].Lane != LaneStall {
		t.Fatalf("StallSpan not recorded: %+v", evs)
	}
}

// Suspend detaches the in-flight sample so events emitted meanwhile are
// dropped; Resume reattaches it with its core and dispatch cycle.
func TestSuspendResumeCarriesSample(t *testing.T) {
	tr := NewTracer(1024, 1)
	tr.BeginSample(2, "load", 0x40, 0x1000, 100)
	s := tr.Suspend()
	if tr.Active() {
		t.Fatal("tracer active after Suspend")
	}
	tr.Span("cache", "L2C", LaneCache, 100, 110) // another core's step
	tr.Resume(s)
	if !tr.Active() || tr.Now() != 100 {
		t.Fatalf("Resume did not restore the sample: active=%v now=%d", tr.Active(), tr.Now())
	}
	tr.Span("cache", "LLC", LaneCache, 110, 140)
	tr.EndSample("load", 150)
	evs := tr.Events()
	if len(evs) != 3 || evs[1].Name != "LLC" || evs[2].Name != "load" {
		t.Fatalf("events %+v, want begin, LLC, load", evs)
	}
	for _, ev := range evs {
		if ev.Core != 2 {
			t.Errorf("event %q on core %d, want 2", ev.Name, ev.Core)
		}
	}
}

func TestRingWraparound(t *testing.T) {
	const capacity = 8
	tr := NewTracer(capacity, 1) // sample everything
	const n = 30
	for i := 0; i < n; i++ {
		tr.BeginSample(0, "load", 0, 0, int64(i)) // one event per instruction
		tr.cur.active = false
	}
	evs := tr.Events()
	if len(evs) != capacity {
		t.Fatalf("retained %d events, want ring capacity %d", len(evs), capacity)
	}
	for i, ev := range evs {
		want := uint64(n - capacity + i)
		if ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest-first order)", i, ev.Seq, want)
		}
	}
	if got := tr.Dropped(); got != n-capacity {
		t.Fatalf("Dropped() = %d, want %d", got, n-capacity)
	}
}

// chromeTrace mirrors the trace-event JSON schema Perfetto consumes.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string          `json:"name"`
		Cat  string          `json:"cat"`
		Ph   string          `json:"ph"`
		Pid  *int            `json:"pid"`
		Tid  *int            `json:"tid"`
		Ts   *int64          `json:"ts"`
		Dur  *int64          `json:"dur"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(1024, 1)
	tr.BeginSample(1, "load", 0x400000, 0x7f0000, 100)
	tr.Span("cache", "L1D", LaneCache, 100, 105,
		SArg("outcome", "miss"), IArg("set", 12))
	tr.EndSample("load", 140)
	tr.StallSpan(1, "replay", 200, 260)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	var meta, spans, instants int
	for _, ev := range ct.TraceEvents {
		if ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %q missing pid/tid", ev.Name)
		}
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			spans++
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("span %q missing non-negative dur", ev.Name)
			}
			if ev.Ts == nil {
				t.Fatalf("span %q missing ts", ev.Name)
			}
		case "i":
			instants++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	// Cores 0 and 1 both get metadata (process + 2 per lane).
	if wantMeta := 2 * (1 + 2*int(numLanes)); meta != wantMeta {
		t.Fatalf("metadata events = %d, want %d", meta, wantMeta)
	}
	if spans != 3 || instants != 1 {
		t.Fatalf("spans=%d instants=%d, want 3 and 1", spans, instants)
	}
	if !strings.Contains(buf.String(), `"outcome":"miss"`) ||
		!strings.Contains(buf.String(), `"set":12`) {
		t.Fatalf("args not serialized: %s", buf.String())
	}
}

func TestWriteChromeTraceNilAndEmpty(t *testing.T) {
	for name, tr := range map[string]*Tracer{"nil": nil, "empty": NewTracer(16, 1)} {
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var ct chromeTrace
		if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
			t.Fatalf("%s: invalid JSON: %v", name, err)
		}
	}
}

func TestDeltaRowArithmetic(t *testing.T) {
	var prev, cur Snapshot
	prev.Cycle, cur.Cycle = 1000, 3000
	prev.Instructions, cur.Instructions = 10_000, 14_000
	prev.L1DMisses[mem.ClassNonReplay], cur.L1DMisses[mem.ClassNonReplay] = 100, 180
	prev.L1DMisses[mem.ClassReplay], cur.L1DMisses[mem.ClassReplay] = 10, 30
	prev.L1DMisses[mem.ClassTransLeaf], cur.L1DMisses[mem.ClassTransLeaf] = 5, 500 // excluded from demand
	cur.LLCMisses[mem.ClassReplay] = 8
	cur.LLCMisses[mem.ClassTransLeaf] = 4
	prev.STLBAccesses, cur.STLBAccesses = 1000, 2000
	prev.STLBMisses, cur.STLBMisses = 100, 350
	prev.LeafReads, cur.LeafReads = 200, 400
	prev.LeafDRAM, cur.LeafDRAM = 20, 70
	prev.Stalls, cur.Stalls = [NumStallKinds]uint64{1, 2, 3, 4}, [NumStallKinds]uint64{11, 22, 33, 44}
	cur.DRAMRowHits, cur.DRAMRowClosed, cur.DRAMRowMisses = 60, 20, 20

	r := DeltaRow(prev, cur, 7)
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if r.Index != 7 || r.EndCycle != 3000 || r.Cycles != 2000 || r.Instructions != 4000 {
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

func TestDeltaRowZeroDenominators(t *testing.T) {
	r := DeltaRow(Snapshot{}, Snapshot{}, 0)
	for name, v := range map[string]float64{
		"IPC": r.IPC, "L1DMPKI": r.L1DMPKI, "STLBMissRate": r.STLBMissRate,
		"TransHitRate": r.TransHitRate, "DRAMRowHitRate": r.DRAMRowHitRate,
	} {
		if v != 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v on empty interval, want 0", name, v)
		}
	}
}

func TestHeartbeatCSV(t *testing.T) {
	var buf bytes.Buffer
	hb := NewHeartbeat(&buf, FormatCSV, 1000)
	hb.Begin(Snapshot{Cycle: 100, Instructions: 50})
	hb.Tick(Snapshot{Cycle: 600, Instructions: 1050})
	hb.Tick(Snapshot{Cycle: 1100, Instructions: 2050})
	if err := hb.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != CSVHeader {
		t.Fatalf("header = %q", lines[0])
	}
	wantCols := strings.Count(CSVHeader, ",") + 1
	for i, ln := range lines[1:] {
		if got := strings.Count(ln, ",") + 1; got != wantCols {
			t.Fatalf("row %d has %d columns, want %d: %q", i, got, wantCols, ln)
		}
	}
	rows := hb.Rows()
	if len(rows) != 2 || rows[0].Instructions != 1000 || rows[1].Instructions != 1000 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Index != 0 || rows[1].Index != 1 {
		t.Fatalf("row indices = %d,%d", rows[0].Index, rows[1].Index)
	}
}

func TestHeartbeatJSONL(t *testing.T) {
	var buf bytes.Buffer
	hb := NewHeartbeat(&buf, FormatJSONL, 500)
	hb.Begin(Snapshot{})
	hb.Tick(Snapshot{Cycle: 250, Instructions: 500})
	hb.Tick(Snapshot{Cycle: 700, Instructions: 1000})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	for i, ln := range lines {
		var r Row
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if r.Index != i || r.Instructions != 500 {
			t.Fatalf("line %d decoded to %+v", i, r)
		}
	}
}

func TestNilHeartbeat(t *testing.T) {
	var hb *Heartbeat
	hb.Begin(Snapshot{})
	if r := hb.Tick(Snapshot{Instructions: 5}); r != (Row{}) {
		t.Fatalf("nil heartbeat produced %+v", r)
	}
	if hb.Rows() != nil || hb.Err() != nil || hb.Every() != 0 {
		t.Fatal("nil heartbeat retained state")
	}
}

func TestProgress(t *testing.T) {
	var p *Progress
	p.SetTotal(10) // nil-safe
	p.Set(3)
	if p.Done() != 0 || p.Total() != 0 {
		t.Fatal("nil progress retained state")
	}
	p = &Progress{}
	p.SetTotal(300_000)
	p.Set(120_000)
	if p.Done() != 120_000 || p.Total() != 300_000 {
		t.Fatalf("progress = %d/%d", p.Done(), p.Total())
	}
}
