package simserver

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"atcsim/internal/experiments"
	"atcsim/internal/faultinject"
	"atcsim/internal/metrics"
)

// tinyScale keeps service tests fast: short traces, three workloads.
func tinyScale() Config {
	return Config{
		Scale: experiments.Scale{
			TraceLen:     30_000,
			Instructions: 10_000,
			Warmup:       3_000,
			Workloads:    []string{"xalancbmk", "mcf", "pr"},
			Seed:         1,
		},
		Jobs: 4,
	}
}

func newTestServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := tinyScale()
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and returns the response with its payload read.
func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

func runOK(t *testing.T, base string, req RunRequest) RunResponse {
	t.Helper()
	resp, payload := post(t, base+"/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/run %+v: status %d: %s", req, resp.StatusCode, payload)
	}
	var rr RunResponse
	if err := json.Unmarshal(payload, &rr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return rr
}

func TestRunEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name string
		body any
		want int
	}{
		{"missing workload", RunRequest{}, http.StatusBadRequest},
		{"unknown workload", RunRequest{Workload: "nope"}, http.StatusBadRequest},
		{"unknown enhancement", RunRequest{Workload: "mcf", Enhancement: "warp-drive"}, http.StatusBadRequest},
		{"unknown mechanism", RunRequest{Workload: "mcf", Mechanism: "nope"}, http.StatusBadRequest},
		{"unknown timing", RunRequest{Workload: "mcf", Timing: "nope"}, http.StatusBadRequest},
		{"negative timeout", RunRequest{Workload: "mcf", TimeoutMS: -1}, http.StatusBadRequest},
		{"unknown field", map[string]any{"workload": "mcf", "bogus": 1}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, payload := post(t, ts.URL+"/v1/run", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.want, payload)
		}
		var eb errorBody
		if err := json.Unmarshal(payload, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q not JSON with error field", c.name, payload)
		}
	}
	// Non-POST methods are refused on both endpoints.
	for _, path := range []string{"/v1/run", "/v1/key"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

func TestKeyEndpointMatchesRun(t *testing.T) {
	_, ts := newTestServer(t, nil)
	req := RunRequest{Workload: "xalancbmk", Seed: 1, Enhancement: "tempo"}
	resp, payload := post(t, ts.URL+"/v1/key", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/key: status %d: %s", resp.StatusCode, payload)
	}
	var keyResp RunResponse
	if err := json.Unmarshal(payload, &keyResp); err != nil {
		t.Fatal(err)
	}
	if len(keyResp.Key) != 64 {
		t.Errorf("key %q is not a hex SHA-256", keyResp.Key)
	}
	if keyResp.Kind != "tempo/xalancbmk" {
		t.Errorf("kind = %q", keyResp.Kind)
	}
	if keyResp.Result != nil || keyResp.Source != "" {
		t.Errorf("/v1/key must not execute: %+v", keyResp)
	}
	run := runOK(t, ts.URL, req)
	if run.Key != keyResp.Key {
		t.Errorf("run key %s != key-endpoint key %s", run.Key, keyResp.Key)
	}
}

func TestRunSourceTransitions(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, func(c *Config) { c.CacheDir = dir })
	req := RunRequest{Workload: "mcf", Seed: 1}

	first := runOK(t, ts.URL, req)
	if first.Source != "computed" {
		t.Errorf("first request source = %q, want computed", first.Source)
	}
	if len(first.Result) == 0 {
		t.Error("empty result payload")
	}
	second := runOK(t, ts.URL, req)
	if second.Source != "shared" {
		t.Errorf("repeat request source = %q, want shared", second.Source)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Error("memoized result differs from computed result")
	}
	if s.Runner().Runs() != 1 {
		t.Errorf("Runs() = %d, want 1", s.Runner().Runs())
	}

	// A warm restart on the same cache directory serves from disk,
	// byte-identically.
	_, ts2 := newTestServer(t, func(c *Config) { c.CacheDir = dir })
	warm := runOK(t, ts2.URL, req)
	if warm.Source != "disk" {
		t.Errorf("warm-restart source = %q, want disk", warm.Source)
	}
	if !bytes.Equal(first.Result, warm.Result) {
		t.Error("disk result differs from computed result")
	}
}

// TestRunsTableOneEntryPerKey: three seeds of one enhancement/workload are
// three run keys, so /runs lists three entries, each under its own key's
// hash, and counts three done runs.
func TestRunsTableOneEntryPerKey(t *testing.T) {
	_, ts := newTestServer(t, nil)
	keys := map[string]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		keys[runOK(t, ts.URL, RunRequest{Workload: "pr", Seed: seed}).Key] = true
	}
	_, body := get(t, ts.URL+"/runs")
	var payload struct {
		Counts map[metrics.RunState]int `json:"counts"`
		Runs   []metrics.RunInfo        `json:"runs"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("/runs is not JSON: %v", err)
	}
	if len(payload.Runs) != 3 || payload.Counts[metrics.StateDone] != 3 {
		t.Fatalf("/runs = %d entries, counts %v; want 3 entries, done:3", len(payload.Runs), payload.Counts)
	}
	for _, run := range payload.Runs {
		if !keys[run.Hash] || run.Key != "svc:baseline/pr@"+run.Hash {
			t.Errorf("/runs entry %+v does not name one of the requested keys", run)
		}
	}
}

func TestHealthzAndReadyzSplit(t *testing.T) {
	s, ts := newTestServer(t, nil)
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz = %d", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz before drain = %d", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Drain(ctx)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz during/after drain = %d, want 503", got)
	}
	// Liveness is unaffected: the process still serves diagnostics.
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz after drain = %d", got)
	}
	// New runs are refused while drained.
	resp, _ := post(t, ts.URL+"/v1/run", RunRequest{Workload: "mcf"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/v1/run after drain = %d, want 503", resp.StatusCode)
	}
}

// TestDrainDeadlineAbandonsSlowRun pins the drain's one bound: when Drain's
// ctx expires while a long simulation is in flight, Drain cancels the
// engine and returns promptly, the abandoned request is answered with the
// cancellation, and nothing is counted as computed.
func TestDrainDeadlineAbandonsSlowRun(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		// Far more instructions than the 30K-record trace: the run loops
		// over it for on the order of a second.
		c.Scale.Instructions = 10_000_000
	})
	type answer struct {
		status int
		body   string
		err    error
	}
	answered := make(chan answer, 1)
	go func() {
		raw, _ := json.Marshal(RunRequest{Workload: "xalancbmk", Seed: 1})
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(raw))
		if err != nil {
			answered <- answer{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		answered <- answer{status: resp.StatusCode, body: string(body), err: err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.inflightN.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("run never went in flight")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	s.Drain(ctx)
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("Drain took %v after its ctx expired at 20ms", took)
	}
	if !s.Runner().Interrupted() {
		t.Error("Runner().Interrupted() = false after the drain deadline")
	}
	a := <-answered
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.status != http.StatusInternalServerError {
		t.Errorf("in-flight request answered %d, want 500", a.status)
	} else if !strings.Contains(a.body, "canceled") {
		t.Errorf("in-flight request failed with %s, want the cancellation", a.body)
	}
	if runs := s.Runner().Runs(); runs != 0 {
		t.Errorf("Runs() = %d after the run was abandoned, want 0", runs)
	}
}

func TestMetricsScrapeLintCleanAndComplete(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// One real run so the engine's run series carry live values too.
	runOK(t, ts.URL, RunRequest{Workload: "pr", Seed: 1, Enhancement: "tempo"})
	_, exposition := get(t, ts.URL+"/metrics")
	if problems := metrics.Lint([]byte(exposition)); len(problems) != 0 {
		t.Errorf("exposition lint problems:\n%s", strings.Join(problems, "\n"))
	}
	for _, family := range MetricFamilies() {
		if !strings.Contains(exposition, family) {
			t.Errorf("family %s missing from /metrics", family)
		}
	}
	// The diagnostics endpoints are mounted.
	for _, path := range []string{"/runs", "/flightrecorder"} {
		if code, _ := get(t, ts.URL+path); code != http.StatusOK {
			t.Errorf("GET %s = %d", path, code)
		}
	}
	// Profiles are not: the service port serves only the routes it names.
	if code, _ := get(t, ts.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("GET /debug/pprof/ = %d, want 404", code)
	}
}

// get fetches url and returns the status and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestRequestSecondsObservesOnly200s: simserver_request_seconds is the
// latency of /v1/run requests answered 200, so failed runs leave it empty
// while simserver_requests_total counts each of them.
func TestRequestSecondsObservesOnly200s(t *testing.T) {
	faults := faultinject.NewPlan(17,
		faultinject.Rule{Site: faultinject.SiteRun, Match: "svc:baseline/mcf", Kind: faultinject.KindPermanent},
	)
	_, ts := newTestServer(t, func(c *Config) { c.Faults = faults })
	for i := 0; i < 3; i++ {
		resp, payload := post(t, ts.URL+"/v1/run", RunRequest{Workload: "mcf", Seed: 1})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, payload)
		}
	}
	_, exposition := get(t, ts.URL+"/metrics")
	for _, line := range []string{
		"simserver_request_seconds_count 0",
		`simserver_requests_total{outcome="failed"} 3`,
	} {
		if !strings.Contains(exposition, "\n"+line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestDecodeBoundsAndStrictness pins the request-body contract of both
// decoding endpoints: a body over maxRequestBytes is a 413 and anything
// after the first JSON value is a 400, each counted as bad_request and
// neither running or keying anything; trailing whitespace is accepted.
func TestDecodeBoundsAndStrictness(t *testing.T) {
	s, ts := newTestServer(t, nil)
	huge := strings.Repeat("a", maxRequestBytes)
	cases := []struct {
		name, body string
		want       int
	}{
		{"second object", `{"workload":"mcf"}{"workload":"pr"}`, http.StatusBadRequest},
		{"trailing garbage", `{"workload":"mcf"} x`, http.StatusBadRequest},
		{"stray brace", `{"workload":"mcf"}}`, http.StatusBadRequest},
		{"oversized field", `{"workload":"mcf","mechanism":"` + huge + `"}`, http.StatusRequestEntityTooLarge},
		{"oversized padding", `{"workload":"mcf"}` + strings.Repeat(" ", maxRequestBytes), http.StatusRequestEntityTooLarge},
	}
	rejected := 0
	for _, path := range []string{"/v1/run", "/v1/key"} {
		for _, c := range cases {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			payload, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			rejected++
			if resp.StatusCode != c.want {
				t.Errorf("%s %s: status %d, want %d (%s)", path, c.name, resp.StatusCode, c.want, payload)
			}
			var eb errorBody
			if err := json.Unmarshal(payload, &eb); err != nil || eb.Error == "" {
				t.Errorf("%s %s: error body %q not JSON with error field", path, c.name, payload)
			}
		}
	}
	if got := s.met.requests[outcomeBadRequest].Value(); got != uint64(rejected) {
		t.Errorf("bad_request = %d, want %d", got, rejected)
	}
	if n := s.Runner().Runs(); n != 0 {
		t.Errorf("rejected bodies ran %d simulations", n)
	}
	resp, err := http.Post(ts.URL+"/v1/key", "application/json", strings.NewReader("{\"workload\":\"mcf\"}\n\t "))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace: status %d, want 200", resp.StatusCode)
	}
}
