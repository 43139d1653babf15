package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("widgets_total", "Widgets made.", L("kind", "round"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("queue_depth", "Live queue depth.")
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", got)
	}
	// Idempotent re-registration returns the same backing series.
	c2 := r.Counter("widgets_total", "", L("kind", "round"))
	c2.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("re-registered counter diverged: %d, want 6", got)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c Counter
	var g Gauge
	var h *Histogram
	var rt *RunTable
	var fr *FlightRecorder
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(2)
	rt.Queued("a", "h")
	rt.Running("a")
	rt.Done("a")
	fr.Record(Event{Kind: EventRunStarted})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || fr.Total() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	runs, counts := rt.Snapshot()
	if len(runs) != 0 || counts[StateDone] != 0 {
		t.Fatal("nil run table must snapshot empty")
	}
}

func TestLabelOrderCanonicalized(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "", L("b", "2"), L("a", "1"))
	b := r.Counter("x_total", "", L("a", "1"), L("b", "2"))
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Fatalf("label order created distinct series: %d", a.Value())
	}
}

func TestCounterNameMustEndInTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for counter without _total suffix")
		}
	}()
	New().Counter("bad_name", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.NewHistogram("latency_seconds", "Run latency.", []float64{1, 10})
	for _, v := range []float64{0.5, 0.7, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 56.2 {
		t.Fatalf("sum = %v", h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`latency_seconds_bucket{le="1"} 2`,
		`latency_seconds_bucket{le="10"} 3`,
		`latency_seconds_bucket{le="+Inf"} 4`,
		`latency_seconds_count 4`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestOpenMetricsExpositionLints(t *testing.T) {
	r := New()
	r.Counter("cache_hits_total", "Cache hits.", L("level", "llc")).Add(10)
	r.Counter("cache_hits_total", "Cache hits.", L("level", "l2")).Add(7)
	r.Gauge("runner_inflight", "Runs in flight.").Set(2)
	r.GaugeFunc("up", "Always one.", func() float64 { return 1 })
	r.NewHistogram("run_seconds", "Run durations.", []float64{0.1, 1, 10}).Observe(0.25)
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if problems := Lint(buf.Bytes()); len(problems) > 0 {
		t.Fatalf("lint problems in own exposition:\n%s\n---\n%s",
			strings.Join(problems, "\n"), buf.String())
	}
	text := buf.String()
	if !strings.Contains(text, "# TYPE cache_hits counter") {
		t.Errorf("counter family TYPE missing _total strip:\n%s", text)
	}
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Errorf("exposition must end with # EOF")
	}
}

func TestLintCatchesMalformed(t *testing.T) {
	bad := "cache_hits_total{level=\"llc\"} 1\n# EOF\n"        // sample before TYPE
	dup := "# TYPE x gauge\nx 1\nx 1\n# EOF\n"                 // duplicate series
	noEOF := "# TYPE x gauge\nx 1\n"                           // missing EOF
	badCounter := "# TYPE y counter\ny 1\n# EOF\n"             // counter without _total
	garbled := "# TYPE x gauge\nx{level=llc} one bad\n# EOF\n" // malformed sample
	interleaved := "# TYPE a counter\n# TYPE b counter\n" +    // a's samples split by b's
		"a_total{l=\"1\"} 1\nb_total{l=\"1\"} 1\na_total{l=\"2\"} 1\n# EOF\n"
	for name, in := range map[string]string{"untyped": bad, "dup": dup,
		"noeof": noEOF, "counter": badCounter, "garbled": garbled,
		"interleaved": interleaved} {
		if problems := Lint([]byte(in)); len(problems) == 0 {
			t.Errorf("%s: lint accepted malformed exposition %q", name, in)
		}
	}
}

func TestJSONLSnapshot(t *testing.T) {
	r := New()
	r.Counter("a_total", "").Add(3)
	r.Gauge("b", "").Set(1.5)
	var buf bytes.Buffer
	if err := r.WriteJSONLSnapshot(&buf, 7); err != nil {
		t.Fatal(err)
	}
	var row struct {
		Snapshot int                `json:"snapshot"`
		Series   map[string]float64 `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &row); err != nil {
		t.Fatalf("snapshot line is not JSON: %v\n%s", err, buf.String())
	}
	if row.Snapshot != 7 || row.Series["a_total"] != 3 || row.Series["b"] != 1.5 {
		t.Fatalf("snapshot = %+v", row)
	}
}

func TestRunTableLifecycle(t *testing.T) {
	rt := NewRunTable()
	rt.Queued("base/mcf", "abc123")
	rt.Running("base/mcf")
	if rt.Count(StateRunning) != 1 {
		t.Fatalf("running = %d, want 1", rt.Count(StateRunning))
	}
	rt.Failed("base/mcf", "boom")
	rt.Queued("base/pr", "def456")
	rt.Running("base/pr")
	rt.Done("base/pr")
	rt.Cached("base/bc")

	runs, counts := rt.Snapshot()
	if len(runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(runs))
	}
	if runs[0].State != StateFailed || runs[0].Error != "boom" {
		t.Fatalf("failed run = %+v", runs[0])
	}
	if runs[1].State != StateDone || runs[2].State != StateCached {
		t.Fatalf("states = %v %v", runs[1].State, runs[2].State)
	}
	if counts[StateFailed] != 1 || counts[StateDone] != 1 || counts[StateCached] != 1 {
		t.Fatalf("counts = %v", counts)
	}

	var buf bytes.Buffer
	if err := rt.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Counts map[string]int `json:"counts"`
		Runs   []RunInfo      `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &payload); err != nil {
		t.Fatalf("/runs payload is not JSON: %v", err)
	}
	if payload.Counts["failed"] != 1 || len(payload.Runs) != 3 {
		t.Fatalf("payload = %+v", payload)
	}

	// A failed key queued again (a deadline re-arm) moves its one count
	// from failed to queued.
	rt.Queued("base/mcf", "abc123")
	if f, q := rt.Count(StateFailed), rt.Count(StateQueued); f != 0 || q != 1 {
		t.Fatalf("after re-arm failed=%d queued=%d, want 0 and 1", f, q)
	}
	if _, counts := rt.Snapshot(); counts[StateFailed] != 0 || counts[StateQueued] != 1 {
		t.Fatalf("after re-arm snapshot counts = %v", counts)
	}
	// A count walks the entries in place; it never copies the table.
	if n := testing.AllocsPerRun(100, func() { rt.Count(StateDone) }); n != 0 {
		t.Fatalf("Count allocates %v times per call, want 0", n)
	}
}

// TestRunTableRequeueRestartsClock: a key queued again after a terminal
// state (a deadline re-arm) is a new run, so /runs must not show the old
// run's frozen elapsed time or its error next to the live state.
func TestRunTableRequeueRestartsClock(t *testing.T) {
	rt := NewRunTable()
	clock := time.Unix(0, 0)
	rt.now = func() time.Time { return clock }
	rt.Queued("svc/pr", "abc")
	clock = clock.Add(100 * time.Millisecond)
	rt.Failed("svc/pr", "deadline")
	rt.Queued("svc/pr", "abc")
	rt.Running("svc/pr")
	clock = clock.Add(time.Second)
	runs, _ := rt.Snapshot()
	want := RunInfo{Key: "svc/pr", Hash: "abc", State: StateRunning, ElapsedMS: 1000}
	if len(runs) != 1 || runs[0] != want {
		t.Fatalf("runs = %+v, want [%+v]", runs, want)
	}
}

// TestRunTableCapsFinishedEntries keeps a queued and a running key from
// the start while maxFinishedRuns+1000 other keys finish: the table must
// hold both live keys plus the latest maxFinishedRuns finished entries, in
// first-seen order.
func TestRunTableCapsFinishedEntries(t *testing.T) {
	rt := NewRunTable()
	rt.Queued("live/waiting", "q")
	rt.Queued("live/running", "r")
	rt.Running("live/running")
	n := maxFinishedRuns + 1000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("svc/%d", i)
		switch i % 3 {
		case 0:
			rt.Queued(key, "h")
			rt.Running(key)
			rt.Done(key)
		case 1:
			rt.Queued(key, "h")
			rt.Failed(key, "boom")
		default:
			rt.Cached(key)
		}
	}
	runs, counts := rt.Snapshot()
	if len(runs) != 2+maxFinishedRuns {
		t.Fatalf("table holds %d entries, want %d", len(runs), 2+maxFinishedRuns)
	}
	if runs[0].Key != "live/waiting" || runs[0].State != StateQueued ||
		runs[1].Key != "live/running" || runs[1].State != StateRunning {
		t.Fatalf("live entries = %+v, %+v", runs[0], runs[1])
	}
	for i, r := range runs[2:] {
		if want := fmt.Sprintf("svc/%d", n-maxFinishedRuns+i); r.Key != want {
			t.Fatalf("finished entry %d is %q, want %q", i, r.Key, want)
		}
	}
	if got := counts[StateDone] + counts[StateFailed] + counts[StateCached]; got != maxFinishedRuns {
		t.Fatalf("counts = %v, want %d finished", counts, maxFinishedRuns)
	}
	if rt.Count(StateQueued) != 1 || rt.Count(StateRunning) != 1 {
		t.Fatalf("live counts: queued %d, running %d", rt.Count(StateQueued), rt.Count(StateRunning))
	}

	// A re-armed key is live again: the next finish drops nothing.
	rt.Queued(fmt.Sprintf("svc/%d", n-1), "h")
	rt.Done("svc/new")
	if runs, _ := rt.Snapshot(); len(runs) != 3+maxFinishedRuns {
		t.Fatalf("after a re-arm the table holds %d entries, want %d", len(runs), 3+maxFinishedRuns)
	}
}

func TestFlightRecorderRingAndCanonicalOrder(t *testing.T) {
	fr := NewFlightRecorder(4)
	fr.Record(Event{Kind: EventRunStarted, Run: "z/b", Attempt: 1})
	fr.Record(Event{Kind: EventRunStarted, Run: "a/b", Attempt: 1})
	fr.Record(Event{Kind: EventRunFailed, Run: "a/b", Attempt: 1, Detail: "x"})
	fr.Record(Event{Kind: EventFault, Run: "a/b", Attempt: 1})
	canon := fr.Canonical()
	want := []EventKind{EventRunStarted, EventFault, EventRunFailed, EventRunStarted}
	for i, k := range want {
		if canon[i].Kind != k {
			t.Fatalf("canonical[%d] = %+v, want kind %s", i, canon[i], k)
		}
	}
	// Overflow: the oldest events are overwritten, Total/Dropped account.
	fr.Record(Event{Kind: EventQuarantine, Run: "q/q"})
	if fr.Total() != 5 || fr.Dropped() != 1 {
		t.Fatalf("total=%d dropped=%d", fr.Total(), fr.Dropped())
	}
	evs := fr.Events()
	if len(evs) != 4 || evs[0].Run != "a/b" {
		t.Fatalf("ring contents wrong: %+v", evs)
	}
}

func TestFlightRecorderDumpToSink(t *testing.T) {
	fr := NewFlightRecorder(8)
	path := t.TempDir() + "/flight.jsonl"
	fr.SetSink(path)
	fr.Record(Event{Kind: EventRunFailed, Run: "a/b", Attempt: 3, Detail: "panic: boom"})
	if err := fr.DumpToSink(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := fr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := readFile(t, path)
	if raw != buf.String() {
		t.Fatalf("sink dump diverges from WriteTo:\n%q\n%q", raw, buf.String())
	}
	var ev Event
	if err := json.Unmarshal([]byte(strings.Split(raw, "\n")[0]), &ev); err != nil {
		t.Fatalf("dump line is not JSON: %v", err)
	}
	if ev.Kind != EventRunFailed || ev.Attempt != 3 {
		t.Fatalf("dumped event = %+v", ev)
	}
}

func TestServerEndpoints(t *testing.T) {
	r := New()
	r.Counter("cache_hits_total", "h", L("level", "llc")).Add(2)
	rt := NewRunTable()
	rt.Queued("base/pr", "h1")
	fr := NewFlightRecorder(8)
	fr.Record(Event{Kind: EventRunStarted, Run: "base/pr", Attempt: 1})
	srv := &Server{Registry: r, Runs: rt, Recorder: fr}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String(), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != 200 || !strings.Contains(ctype, "openmetrics-text") {
		t.Fatalf("/metrics code=%d ctype=%q", code, ctype)
	}
	if problems := Lint([]byte(body)); len(problems) > 0 {
		t.Fatalf("/metrics fails lint: %v", problems)
	}
	if code, body, _ := get("/healthz"); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Fatalf("/healthz code=%d body=%q", code, body)
	}
	if code, body, _ := get("/runs"); code != 200 || !strings.Contains(body, "base/pr") {
		t.Fatalf("/runs code=%d body=%q", code, body)
	}
	if code, body, _ := get("/flightrecorder"); code != 200 || !strings.Contains(body, "run-started") {
		t.Fatalf("/flightrecorder code=%d body=%q", code, body)
	}
	if code, _, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ code=%d", code)
	}
	if code, body, _ := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline code=%d body=%q", code, body)
	}

	unhealthy := &Server{Registry: r, Healthy: func() bool { return false }}
	ts2 := httptest.NewServer(unhealthy.Handler())
	defer ts2.Close()
	resp, err := ts2.Client().Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("unhealthy /healthz code = %d, want 503", resp.StatusCode)
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := New()
	c := r.Counter("hits_total", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
