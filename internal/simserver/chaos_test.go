package simserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"atcsim/internal/faultinject"
)

// chaosShapes enumerates the distinct request shapes the load test cycles
// through: 3 workloads × 2 enhancement levels × 2 seeds = 12 distinct run
// keys.
func chaosShapes() []RunRequest {
	var shapes []RunRequest
	for _, w := range []string{"xalancbmk", "mcf", "pr"} {
		for _, e := range []string{"baseline", "tempo"} {
			for _, seed := range []int64{1, 2} {
				shapes = append(shapes, RunRequest{Workload: w, Seed: seed, Enhancement: e})
			}
		}
	}
	return shapes
}

// submitUntilDone drives one request to a final answer, re-submitting on
// 429 (after the advertised Retry-After, capped for test speed). A 200 or a
// 500 is final — a failed run's failure is memoized, so resubmitting it
// would only answer the same 500 — and any other status fails the test. It
// returns the final status and body.
func submitUntilDone(t *testing.T, client *http.Client, base string, req RunRequest) (int, []byte) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("request %+v never completed", req)
		}
		resp, payload := postWith(t, client, base+"/v1/run", req)
		switch resp.StatusCode {
		case http.StatusOK, http.StatusInternalServerError:
			return resp.StatusCode, payload
		case http.StatusTooManyRequests:
			// Acceptance: every shed response must carry a Retry-After hint.
			ra := resp.Header.Get("Retry-After")
			if ra == "" {
				t.Errorf("429 without Retry-After header")
			}
			secs, err := strconv.ParseInt(ra, 10, 64)
			if err != nil || secs < 1 {
				t.Errorf("Retry-After %q not a positive integer", ra)
			}
			wait := time.Duration(secs) * time.Second
			if wait > 50*time.Millisecond {
				wait = 50 * time.Millisecond // honor the hint's spirit, not its tail
			}
			time.Sleep(wait)
		default:
			t.Fatalf("request %+v: unexpected status %d: %s", req, resp.StatusCode, payload)
		}
	}
}

func postWith(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
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

// TestChaosConcurrentLoad is the load-test acceptance gate: 240 concurrent
// requests over 12 distinct run keys, against a server where every mcf run
// fails and a tight admission envelope sheds traffic. Each mcf key is
// consulted once and every response for it is the same 500 body; every
// other key is computed exactly once and every response for it is
// byte-identical; shed responses must carry Retry-After.
func TestChaosConcurrentLoad(t *testing.T) {
	dir := t.TempDir()
	faults := faultinject.NewPlan(7,
		// Every mcf key fails its one run; its failure is memoized.
		faultinject.Rule{Site: faultinject.SiteRun, Match: "mcf", Kind: faultinject.KindPermanent},
		// A few slow runs stretch the in-flight window so coalescing and
		// queue depth are actually exercised.
		faultinject.Rule{Site: faultinject.SiteRun, Match: "pr", Kind: faultinject.KindSlow, Until: 1, Delay: 30 * time.Millisecond},
	)
	s, ts := newTestServer(t, func(c *Config) {
		c.CacheDir = dir
		c.Faults = faults
		// Tight admission: shed traffic is part of the test.
		c.AdmitRate = 2000
		c.AdmitBurst = 32
		c.AdmitQueue = 64
	})

	shapes := chaosShapes()
	const clients = 240
	client := ts.Client()
	type answer struct {
		status int
		body   []byte
	}
	answers := make([][]answer, len(shapes)) // shape index → every answer
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := submitUntilDone(t, client, ts.URL, shapes[i%len(shapes)])
			mu.Lock()
			answers[i%len(shapes)] = append(answers[i%len(shapes)], answer{status, body})
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	total, failedKeys := 0, 0
	results := make(map[string][]byte) // key → result payload
	for i, shape := range shapes {
		got := answers[i]
		total += len(got)
		wantStatus := http.StatusOK
		if shape.Workload == "mcf" {
			wantStatus = http.StatusInternalServerError
			failedKeys++
		}
		for j, a := range got {
			if a.status != wantStatus {
				t.Errorf("%+v answer %d: status %d, want %d: %s", shape, j, a.status, wantStatus, a.body)
			}
		}
		if wantStatus == http.StatusInternalServerError {
			for j := 1; j < len(got); j++ {
				if !bytes.Equal(got[0].body, got[j].body) {
					t.Errorf("%+v: 500 body %d differs from body 0:\n%s\n%s", shape, j, got[j].body, got[0].body)
					break
				}
			}
			continue
		}
		var first RunResponse
		for j, a := range got {
			var rr RunResponse
			if err := json.Unmarshal(a.body, &rr); err != nil {
				t.Fatalf("decode: %v (%s)", err, a.body)
			}
			if j == 0 {
				first = rr
				results[rr.Key] = rr.Result
			} else if rr.Key != first.Key || !bytes.Equal(rr.Result, first.Result) {
				t.Errorf("%+v: response %d differs from response 0", shape, j)
				break
			}
		}
	}
	if total != clients {
		t.Errorf("answered requests = %d, want %d", total, clients)
	}
	computedKeys := len(shapes) - failedKeys
	if len(results) != computedKeys {
		t.Errorf("distinct computed keys = %d, want %d", len(results), computedKeys)
	}
	// One consultation per failing key: the plan fires on every
	// consultation, so any repeat would fire again.
	if fired := faults.Fired(faultinject.KindPermanent); fired != failedKeys {
		t.Errorf("permanent faults fired %d times, want %d (one per mcf key)", fired, failedKeys)
	}
	if f := s.Runner().Health().Failures.Load(); f != int64(failedKeys) {
		t.Errorf("Health.Failures = %d, want %d", f, failedKeys)
	}
	// Exactly one compute per other key, regardless of concurrency and
	// shedding.
	if runs := s.Runner().Runs(); runs != computedKeys {
		t.Errorf("Runs() = %d, want exactly %d (one per computed key)", runs, computedKeys)
	}
	if q := s.Runner().Quarantined(); q != 0 {
		t.Errorf("Quarantined() = %d under run-site faults only", q)
	}

	// Cold vs warm: a fresh server over the same cache directory serves
	// every computed shape from disk, byte-identically, with zero computes.
	s2, ts2 := newTestServer(t, func(c *Config) { c.CacheDir = dir })
	for _, shape := range shapes {
		if shape.Workload == "mcf" {
			continue // failures are never stored on disk
		}
		warm := runOK(t, ts2.URL, shape)
		if warm.Source != "disk" {
			t.Errorf("warm %+v: source %q, want disk", shape, warm.Source)
		}
		if cold, ok := results[warm.Key]; !ok {
			t.Errorf("warm key %s never seen cold", warm.Key)
		} else if !bytes.Equal(cold, warm.Result) {
			t.Errorf("warm %+v: result differs from cold run", shape)
		}
	}
	if runs := s2.Runner().Runs(); runs != 0 {
		t.Errorf("warm server computed %d runs, want 0", runs)
	}
}

// TestChaosPoisonedKeyRunsOnce: a key whose run always fails is run once.
// Every repeat answers the same 500 body without consulting the fault plan
// again; another key of the same kind costs its own one run, and a healthy
// kind computes as usual.
func TestChaosPoisonedKeyRunsOnce(t *testing.T) {
	faults := faultinject.NewPlan(11,
		faultinject.Rule{Site: faultinject.SiteRun, Match: "svc:baseline/mcf", Kind: faultinject.KindPermanent},
	)
	s, ts := newTestServer(t, func(c *Config) { c.Faults = faults })
	bad := RunRequest{Workload: "mcf", Seed: 1}
	const hits = 6
	var first []byte
	for i := 0; i < hits; i++ {
		resp, payload := post(t, ts.URL+"/v1/run", bad)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("poisoned request %d: status %d: %s", i, resp.StatusCode, payload)
		}
		if i == 0 {
			first = payload
		} else if !bytes.Equal(payload, first) {
			t.Errorf("poisoned request %d body differs:\n%s\n%s", i, payload, first)
		}
	}
	if fired := faults.Fired(faultinject.KindPermanent); fired != 1 {
		t.Errorf("fault consulted %d times over %d requests, want 1", fired, hits)
	}
	if f := s.Runner().Health().Failures.Load(); f != 1 {
		t.Errorf("Health.Failures = %d, want 1", f)
	}
	if got := s.met.requests[outcomeFailed].Value(); got != hits {
		t.Errorf("failed outcomes = %d, want %d", got, hits)
	}
	// A new key of the failing kind is its own run.
	bad.Seed = 2
	if resp, payload := post(t, ts.URL+"/v1/run", bad); resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("second poisoned key: status %d: %s", resp.StatusCode, payload)
	}
	if fired := faults.Fired(faultinject.KindPermanent); fired != 2 {
		t.Errorf("fault fired %d times over two keys, want 2", fired)
	}
	healthy := runOK(t, ts.URL, RunRequest{Workload: "xalancbmk", Seed: 1})
	if healthy.Source != "computed" {
		t.Errorf("healthy kind source = %q", healthy.Source)
	}
}

// TestChaosCoalescedDeadlineFailuresSpareTheKind: six concurrent identical
// requests with a short timeout coalesce onto one stalled run that misses
// its deadline. That one failure is the requests' deadline, not the kind's
// health: another seed of the same kind answers 200, and the failed key
// itself computes on a later request without the short timeout.
func TestChaosCoalescedDeadlineFailuresSpareTheKind(t *testing.T) {
	faults := faultinject.NewPlan(13,
		faultinject.Rule{Site: faultinject.SiteRun, Match: "svc:baseline/mcf", Kind: faultinject.KindSlow, Until: 1, Delay: 3 * time.Second},
	)
	s, ts := newTestServer(t, func(c *Config) { c.Faults = faults })
	const clients = 6
	type answer struct {
		status int
		body   []byte
		err    error
	}
	answers := make(chan answer, clients)
	for i := 0; i < clients; i++ {
		go func() {
			resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json",
				strings.NewReader(`{"workload":"mcf","seed":1,"timeout_ms":500}`))
			if err != nil {
				answers <- answer{err: err}
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			answers <- answer{resp.StatusCode, body, err}
		}()
	}
	for i := 0; i < clients; i++ {
		a := <-answers
		if a.err != nil {
			t.Fatal(a.err)
		}
		if a.status != http.StatusInternalServerError || !bytes.Contains(a.body, []byte("deadline exceeded")) {
			t.Errorf("stalled request answered %d %s, want the 500 deadline failure", a.status, a.body)
		}
	}
	h := s.Runner().Health()
	if h.Failures.Load() != 1 || h.Timeouts.Load() != 1 {
		t.Errorf("failures %d, timeouts %d; want one coalesced deadline failure", h.Failures.Load(), h.Timeouts.Load())
	}
	if other := runOK(t, ts.URL, RunRequest{Workload: "mcf", Seed: 2}); other.Source != "computed" {
		t.Errorf("mcf seed 2 source = %q, want computed", other.Source)
	}
	if again := runOK(t, ts.URL, RunRequest{Workload: "mcf", Seed: 1}); again.Source != "computed" {
		t.Errorf("mcf seed 1 after its deadline failure: source %q, want computed", again.Source)
	}
}

// TestChaosClientCancelDoesNotAbandonRun proves a client disconnect
// releases the response without killing the shared computation: the result
// still lands in cache and serves later requests.
func TestChaosClientCancelDoesNotAbandonRun(t *testing.T) {
	dir := t.TempDir()
	faults := faultinject.NewPlan(3,
		faultinject.Rule{Site: faultinject.SiteRun, Match: "pr", Kind: faultinject.KindSlow, Until: 1, Delay: 200 * time.Millisecond},
	)
	s, ts := newTestServer(t, func(c *Config) {
		c.CacheDir = dir
		c.Faults = faults
	})
	raw, _ := json.Marshal(RunRequest{Workload: "pr", Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the slow run start
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("canceled request did not error client-side")
	}
	// The abandoned run must still complete and serve later requests.
	deadline := time.Now().Add(30 * time.Second)
	for s.Runner().Runs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned run never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	later := runOK(t, ts.URL, RunRequest{Workload: "pr", Seed: 1})
	if later.Source == "computed" {
		t.Errorf("later request recomputed; want shared/disk, got %q", later.Source)
	}
	if s.Runner().Runs() != 1 {
		t.Errorf("Runs() = %d, want 1", s.Runner().Runs())
	}
}

// TestChaosDrainFinishesInflightWithoutTornEntries drives requests into a
// drain: in-flight work finishes and is answered, readiness reports 503
// for the full drain window, new work is refused, and the cache directory
// holds no torn or quarantined entries afterwards.
func TestChaosDrainFinishesInflightWithoutTornEntries(t *testing.T) {
	dir := t.TempDir()
	faults := faultinject.NewPlan(5,
		faultinject.Rule{Site: faultinject.SiteRun, Kind: faultinject.KindSlow, Until: 1, Delay: 150 * time.Millisecond},
	)
	s, ts := newTestServer(t, func(c *Config) {
		c.CacheDir = dir
		c.Faults = faults
	})
	// Launch in-flight work.
	type res struct {
		rr  RunResponse
		err error
	}
	inflight := make(chan res, 3)
	for i, w := range []string{"xalancbmk", "mcf", "pr"} {
		go func(i int, w string) {
			defer func() {
				if p := recover(); p != nil {
					inflight <- res{err: fmt.Errorf("panic: %v", p)}
				}
			}()
			rr := runOK(t, ts.URL, RunRequest{Workload: w, Seed: 1})
			inflight <- res{rr: rr}
		}(i, w)
	}
	time.Sleep(60 * time.Millisecond) // let the slow runs start

	drained := make(chan struct{})
	go func() {
		s.Drain(context.Background())
		close(drained)
	}()
	// Readiness must report 503 for the full drain window.
	deadline := time.Now().Add(10 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain flag never flipped")
		}
		time.Sleep(time.Millisecond)
	}
	sawNotReady := 0
	for {
		select {
		case <-drained:
		default:
		}
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("/readyz during drain = %d, want 503", resp.StatusCode)
		}
		sawNotReady++
		select {
		case <-drained:
		case <-time.After(20 * time.Millisecond):
			continue
		}
		break
	}
	if sawNotReady == 0 {
		t.Error("readiness never polled during drain")
	}
	// In-flight requests were answered, not dropped.
	for i := 0; i < 3; i++ {
		select {
		case r := <-inflight:
			if r.err != nil {
				t.Errorf("in-flight request during drain: %v", r.err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("in-flight request never answered")
		}
	}
	// Zero lost entries: every completed run is on disk, whole.
	if q := s.Runner().Quarantined(); q != 0 {
		t.Errorf("drain quarantined %d entries", q)
	}
	if bad, _ := filepath.Glob(filepath.Join(dir, "*.bad")); len(bad) != 0 {
		t.Errorf("torn/quarantined entries after drain: %v", bad)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "entry-*.tmp")); len(tmp) != 0 {
		t.Errorf("stale temp files after drain: %v", tmp)
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(entries) != 3 {
		t.Errorf("cache entries after drain = %d, want 3", len(entries))
	}
	// A warm restart on the drained cache serves everything from disk.
	_, ts2 := newTestServer(t, func(c *Config) { c.CacheDir = dir })
	for _, w := range []string{"xalancbmk", "mcf", "pr"} {
		warm := runOK(t, ts2.URL, RunRequest{Workload: w, Seed: 1})
		if warm.Source != "disk" {
			t.Errorf("post-drain warm %s: source %q, want disk", w, warm.Source)
		}
	}
}
