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

// submitUntilDone drives one request to completion, re-submitting on 429
// (after the advertised Retry-After, capped for test speed), on 503
// breaker refusals and after a 500 run failure (an injected fault fails its
// run's single attempt; the re-armed key computes on resubmission). It
// fails the test on any other non-200 outcome.
func submitUntilDone(t *testing.T, client *http.Client, base string, req RunRequest) RunResponse {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("request %+v never completed", req)
		}
		resp, payload := postWith(t, client, base+"/v1/run", req)
		switch resp.StatusCode {
		case http.StatusOK:
			var rr RunResponse
			if err := json.Unmarshal(payload, &rr); err != nil {
				t.Fatalf("decode: %v (%s)", err, payload)
			}
			return rr
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
		case http.StatusServiceUnavailable, http.StatusInternalServerError:
			time.Sleep(20 * time.Millisecond)
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
// requests over 12 distinct run keys, against a server with seeded
// healing faults and a tight admission envelope. Exactly one simulation
// per distinct key may execute; every response for a key must be
// byte-identical; shed responses must carry Retry-After; everything must
// eventually succeed.
func TestChaosConcurrentLoad(t *testing.T) {
	dir := t.TempDir()
	faults := faultinject.NewPlan(7,
		// The first mcf run of each enhancement fails its single attempt;
		// its waiters resubmit and the re-armed key computes once.
		faultinject.Rule{Site: faultinject.SiteRun, Match: "mcf", Kind: faultinject.KindIOErr, Until: 1},
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
		// Every request coalesced onto a failed mcf compute reports the
		// shared failure, so it may trip its kind's breaker; a short
		// cooldown lets the resubmissions probe it closed again.
		c.BreakerCooldown = 50 * time.Millisecond
	})

	shapes := chaosShapes()
	const clients = 240
	client := ts.Client()
	var mu sync.Mutex
	results := make(map[string][][]byte) // key → every result payload seen
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr := submitUntilDone(t, client, ts.URL, shapes[i%len(shapes)])
			mu.Lock()
			results[rr.Key] = append(results[rr.Key], rr.Result)
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	if len(results) != len(shapes) {
		t.Errorf("distinct keys = %d, want %d", len(results), len(shapes))
	}
	total := 0
	for key, payloads := range results {
		total += len(payloads)
		for i := 1; i < len(payloads); i++ {
			if !bytes.Equal(payloads[0], payloads[i]) {
				t.Errorf("key %s: response %d differs from response 0", key, i)
				break
			}
		}
	}
	if total != clients {
		t.Errorf("completed responses = %d, want %d", total, clients)
	}
	// Exactly one successful compute per distinct key, regardless of
	// concurrency, shedding and resubmission.
	if runs := s.Runner().Runs(); runs != len(shapes) {
		t.Errorf("Runs() = %d, want exactly %d (one per distinct key)", runs, len(shapes))
	}
	if q := s.Runner().Quarantined(); q != 0 {
		t.Errorf("Quarantined() = %d under run-site faults only", q)
	}

	// Cold vs warm: a fresh server over the same cache directory serves
	// every shape from disk, byte-identically, with zero computes.
	s2, ts2 := newTestServer(t, func(c *Config) { c.CacheDir = dir })
	for _, shape := range shapes {
		warm := runOK(t, ts2.URL, shape)
		if warm.Source != "disk" {
			t.Errorf("warm %+v: source %q, want disk", shape, warm.Source)
		}
		mu.Lock()
		cold := results[warm.Key]
		mu.Unlock()
		if len(cold) == 0 {
			t.Errorf("warm key %s never seen cold", warm.Key)
		} else if !bytes.Equal(cold[0], warm.Result) {
			t.Errorf("warm %+v: result differs from cold run", shape)
		}
	}
	if runs := s2.Runner().Runs(); runs != 0 {
		t.Errorf("warm server computed %d runs, want 0", runs)
	}
}

// TestChaosBreakerIsolatesPoisonedKind proves one permanently-failing kind
// trips its own breaker without cutting off healthy kinds.
func TestChaosBreakerIsolatesPoisonedKind(t *testing.T) {
	faults := faultinject.NewPlan(11,
		faultinject.Rule{Site: faultinject.SiteRun, Match: "svc:baseline/mcf", Kind: faultinject.KindPermanent},
	)
	s, ts := newTestServer(t, func(c *Config) {
		c.Faults = faults
		c.BreakerWindow = 4
		c.BreakerThreshold = 2
		c.BreakerCooldown = time.Hour // stays open for the test's lifetime
	})
	bad := RunRequest{Workload: "mcf", Seed: 1}
	sawOpen := false
	for i := 0; i < 8; i++ {
		// Distinct seeds defeat result memoization so each request is a
		// fresh failing run feeding the breaker window.
		bad.Seed = int64(i + 1)
		resp, payload := post(t, ts.URL+"/v1/run", bad)
		switch resp.StatusCode {
		case http.StatusInternalServerError:
			// A real failed run.
		case http.StatusServiceUnavailable:
			sawOpen = true
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Error("breaker 503 without Retry-After")
			}
		default:
			t.Fatalf("poisoned request %d: status %d: %s", i, resp.StatusCode, payload)
		}
		if sawOpen {
			break
		}
	}
	if !sawOpen {
		t.Fatal("breaker never opened for the poisoned kind")
	}
	if got := s.breakers.get("baseline/mcf").State(); got != breakerOpen {
		t.Errorf("poisoned kind state = %v, want open", got)
	}
	// A healthy kind still flows.
	healthy := runOK(t, ts.URL, RunRequest{Workload: "xalancbmk", Seed: 1})
	if healthy.Source != "computed" {
		t.Errorf("healthy kind source = %q", healthy.Source)
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
