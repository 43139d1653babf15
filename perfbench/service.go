package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"atcsim/internal/experiments"
	"atcsim/internal/experiments/runner"
	"atcsim/internal/faultinject"
	"atcsim/internal/simserver"
	"atcsim/internal/system"
	"atcsim/internal/trace"
	"atcsim/internal/workloads"
)

const (
	// warmRate is the warm loop's fixed send rate: half the service's
	// default admission rate, so admission never sheds in steady state.
	warmRate = 100
	// coldPeriod spaces the fresh-seed requests; the first is due half a
	// period into the loop.
	coldPeriod = time.Second
	// serviceSetups is how many fresh set-ups a run measures.
	serviceSetups = 3
)

// serviceScale is the simulation scale the service runs every request at:
// the run's scale over all nine benchmarks, as atcsimd serves by default.
func serviceScale(sc scale) experiments.Scale {
	return experiments.Scale{TraceLen: sc.traceLen, Instructions: sc.instructions, Warmup: sc.warm,
		Workloads: workloads.Names(), Seed: 1}
}

// request is one scheduled /v1/run call.
type request struct {
	body simserver.RunRequest
	at   time.Duration // scheduled send time, from the start of the loops
}

// plan is the service workload's input, derived from the seed alone: the
// warm key set (one per benchmark, baseline and TEMPO alternating), the warm
// loop's picks from it, and the fresh-seed cold requests cycling the nine
// benchmarks in a seeded order.
type plan struct {
	warmKeys   []simserver.RunRequest
	warm, cold []request
}

func newPlan(seed int64, seconds float64) plan {
	rng := rand.New(rand.NewSource(seed))
	names := workloads.Names()
	var p plan
	for i, n := range names {
		enh := system.Baseline
		if i%2 == 1 {
			enh = system.TEMPO
		}
		p.warmKeys = append(p.warmKeys, simserver.RunRequest{Workload: n, Seed: seed, Enhancement: enh.String()})
	}
	span := time.Duration(seconds * float64(time.Second))
	gap := time.Second / warmRate
	for at := time.Duration(0); at < span; at += gap {
		p.warm = append(p.warm, request{body: p.warmKeys[rng.Intn(len(p.warmKeys))], at: at})
	}
	order := rng.Perm(len(names))
	for j, at := 0, coldPeriod/2; at < span || j == 0; j, at = j+1, at+coldPeriod {
		p.cold = append(p.cold, request{
			body: simserver.RunRequest{Workload: names[order[j%len(names)]], Seed: seed + 1 + int64(j)},
			at:   at,
		})
	}
	return p
}

// digest fingerprints the plan: identical seeds give identical plans.
func (p plan) digest() string { return digest([]byte(fmt.Sprintf("%+v", p))) }

// enhancements maps wire names to levels, as the service resolves them.
var enhancements = func() map[string]system.Enhancement {
	m := map[string]system.Enhancement{"": system.Baseline}
	for _, e := range system.Enhancements() {
		m[e.String()] = e
	}
	return m
}()

// mod is the configuration modifier the service applies for q.
func mod(q simserver.RunRequest) func(*system.Config) {
	level := enhancements[q.Enhancement]
	return func(c *system.Config) { c.Apply(level) }
}

// service is an in-process atcsimd: the simserver handler served on a
// loopback listener with a disk cache in a scratch directory, and a client
// limited to two connections.
type service struct {
	srv    *simserver.Server
	hs     *http.Server
	served chan error
	url    string
	dir    string
	client *http.Client
}

func startService(o options, faults *faultinject.Plan) (*service, error) {
	dir, err := os.MkdirTemp(o.workDir, "service-")
	if err != nil {
		return nil, err
	}
	srv, err := simserver.New(simserver.Config{Scale: serviceScale(o.scale), Jobs: 1,
		CacheDir: filepath.Join(dir, "cache"), Faults: faults})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		dir:    dir,
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	for ready := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := s.client.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(ready) {
			s.stop()
			return nil, fmt.Errorf("service not ready after 10s: %v", err)
		}
	}
}

// stop shuts the listener, drains the service, waits for the serve loop
// to return and removes the scratch directory.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.srv.Drain(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// post sends one /v1/run request.
func (s *service) post(q simserver.RunRequest) (int, simserver.RunResponse, error) {
	var out simserver.RunResponse
	raw, err := json.Marshal(q)
	if err != nil {
		return 0, out, err
	}
	resp, err := s.client.Post(s.url+"/v1/run", "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, out, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, out, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, out, fmt.Errorf("/v1/run %s seed %d: %s: %s", q.Workload, q.Seed, resp.Status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return resp.StatusCode, out, fmt.Errorf("decode /v1/run response: %w", err)
	}
	return resp.StatusCode, out, nil
}

// setUp starts a service and warms every key of the plan, returning the
// prime responses by warm-key index.
func setUp(o options, p plan, faults *faultinject.Plan) (*service, []simserver.RunResponse, error) {
	s, err := startService(o, faults)
	if err != nil {
		return nil, nil, err
	}
	primed := make([]simserver.RunResponse, len(p.warmKeys))
	for i, q := range p.warmKeys {
		var err error
		if _, primed[i], err = s.post(q); err != nil {
			s.stop()
			return nil, nil, fmt.Errorf("warm key %d: %w", i, err)
		}
	}
	return s, primed, nil
}

// primedDigest fingerprints the results of a set-up's prime responses.
func primedDigest(primed []simserver.RunResponse) string {
	var b bytes.Buffer
	for _, r := range primed {
		b.Write(r.Result)
		b.WriteByte('\n')
	}
	return digest(b.Bytes())
}

func serviceChildSetup(o options) (setupSample, error) {
	p := newPlan(o.seed, o.seconds)
	t := time.Now()
	s, primed, err := setUp(o, p, nil)
	if err != nil {
		return setupSample{}, err
	}
	setup := time.Since(t)
	if err := s.stop(); err != nil {
		return setupSample{}, err
	}
	return setupSample{SetupS: setup.Seconds(), Inputs: p.digest(), Result: primedDigest(primed)}, nil
}

// sample is one completed request of an open loop.
type sample struct {
	q       simserver.RunRequest
	late    time.Duration // how late the generator sent it
	latency time.Duration // completion minus scheduled send time
	status  int
	resp    simserver.RunResponse
	err     error
}

// openLoop sends reqs at their scheduled times, one at a time on one
// connection, timing each from when it was due.
func (s *service) openLoop(start time.Time, reqs []request, name string, sp *spans, parent, tid int) []sample {
	out := make([]sample, len(reqs))
	for i, q := range reqs {
		due := start.Add(q.at)
		time.Sleep(time.Until(due))
		sent := time.Now()
		id := sp.begin(name, parent, tid)
		status, resp, err := s.post(q.body)
		sp.end(id)
		out[i] = sample{q: q.body, late: sent.Sub(due), latency: time.Since(due), status: status, resp: resp, err: err}
	}
	return out
}

// reference computes what an in-process experiment engine returns for q:
// the result's JSON bytes, its run key and the result. Each call uses a
// fresh engine, so references hold no traces between requests.
func reference(sc experiments.Scale, q simserver.RunRequest) ([]byte, runner.Key, *system.Result, error) {
	eng := experiments.NewRunner(sc)
	key, err := eng.KeyFor(q.Workload, q.Seed, mod(q))
	if err != nil {
		return nil, key, nil, err
	}
	res, _, err := eng.RunOne(context.Background(), "reference", q.Workload, q.Seed, 0, mod(q))
	if err != nil {
		return nil, key, nil, err
	}
	raw, err := json.Marshal(res)
	return raw, key, res, err
}

// checkResponse verifies one response against the reference bytes and key.
func checkResponse(sm sample, want []byte, key runner.Key, source string) error {
	switch {
	case sm.err != nil:
		return sm.err
	case sm.resp.Key != key.Hash():
		return fmt.Errorf("%s seed %d: key %.12s, want %.12s", sm.q.Workload, sm.q.Seed, sm.resp.Key, key.Hash())
	case source != "" && sm.resp.Source != source:
		return fmt.Errorf("%s seed %d: source %q, want %q", sm.q.Workload, sm.q.Seed, sm.resp.Source, source)
	case !bytes.Equal(sm.resp.Result, want):
		return fmt.Errorf("%s seed %d: result differs from the in-process run", sm.q.Workload, sm.q.Seed)
	}
	return nil
}

// checkDisk verifies that the service persisted a computed result intact.
func checkDisk(disk *runner.Disk, key runner.Key, want []byte) error {
	var res system.Result
	ok, err := disk.Load(key, &res)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("disk cache lacks an intact entry for %.12s", key.Hash())
	}
	raw, err := json.Marshal(&res)
	if err != nil {
		return err
	}
	if !bytes.Equal(raw, want) {
		return fmt.Errorf("disk cache entry %.12s differs from the in-process run", key.Hash())
	}
	return nil
}

func runService(o options) (*report, error) { return runServiceWith(o, nil) }

// runServiceWith runs the service workload; faults, when non-nil, is
// injected into the service (the benchmark's own tests).
func runServiceWith(o options, faults *faultinject.Plan) (rep *report, err error) {
	rep = newReport()
	m := rep.metrics
	p := newPlan(o.seed, o.seconds)
	var sp *spans
	if o.traced {
		sp = newSpans()
	}
	root := sp.begin("run service", 0, 0)

	t := time.Now()
	sid := sp.begin("setup", root, 0)
	s, primed, err := setUp(o, p, faults)
	sp.end(sid)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t)
	defer func() {
		if serr := s.stop(); err == nil {
			err = serr
		}
	}()

	ssc := serviceScale(o.scale)
	warmRef := make(map[simserver.RunRequest][]byte)
	warmKey := make(map[simserver.RunRequest]runner.Key)
	var warmRes *system.Result
	for i, q := range p.warmKeys {
		raw, key, res, err := reference(ssc, q)
		if err != nil {
			return nil, fmt.Errorf("reference for warm key %d: %w", i, err)
		}
		warmRef[q], warmKey[q] = raw, key
		if i == 0 {
			warmRes = res
		}
		rep.check(checkResponse(sample{q: q, resp: primed[i]}, raw, key, string(experiments.SourceComputed)))
	}
	setupS := []float64{setup.Seconds()}
	if !o.traced {
		for i := 1; i < serviceSetups; i++ {
			c, err := runChild(o)
			if err != nil {
				return nil, err
			}
			setupS = append(setupS, c.SetupS)
			rep.check(c.sameAs(p.digest(), primedDigest(primed)))
		}
	}

	// The two open loops, each on its own connection.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lid := sp.begin("open loops", root, 0)
	start := time.Now()
	var warm, cold []sample
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); warm = s.openLoop(start, p.warm, "POST /v1/run warm", sp, lid, 1) }()
	go func() { defer wg.Done(); cold = s.openLoop(start, p.cold, "POST /v1/run cold", sp, lid, 2) }()
	wg.Wait()
	sp.end(lid)
	runtime.ReadMemStats(&after)

	var warmMs, coldMs, lateMs []float64
	var shed, shared float64
	for _, sm := range warm {
		rep.check(checkResponse(sm, warmRef[sm.q], warmKey[sm.q], ""))
		warmMs = append(warmMs, ms(sm.latency))
		lateMs = append(lateMs, ms(sm.late))
		if sm.status == http.StatusTooManyRequests {
			shed++
		}
		if sm.resp.Source == string(experiments.SourceShared) {
			shared++
		}
	}
	insts := float64(o.scale.instructions + o.scale.warm)
	disk, err := runner.NewDisk(filepath.Join(s.dir, "cache"))
	if err != nil {
		return nil, err
	}
	var coldRes []*system.Result
	for _, sm := range cold {
		raw, key, res, err := reference(ssc, sm.q)
		if err != nil {
			return nil, fmt.Errorf("reference for %s seed %d: %w", sm.q.Workload, sm.q.Seed, err)
		}
		rep.check(checkResponse(sm, raw, key, string(experiments.SourceComputed)))
		if sm.err == nil {
			rep.check(checkDisk(disk, key, raw))
		}
		coldMs = append(coldMs, ms(sm.latency))
		lateMs = append(lateMs, ms(sm.late))
		if sm.status == http.StatusTooManyRequests {
			shed++
		}
		coldRes = append(coldRes, res)
	}
	for _, q := range p.warmKeys {
		rep.check(checkDisk(disk, warmKey[q], warmRef[q]))
	}

	if !o.traced {
		// Each benchmark's faster cold request, then the median over the
		// benchmarks: one request landing in a burst of host contention
		// does not move it.
		fastest := map[string]float64{}
		for i, sm := range cold {
			if v, ok := fastest[sm.q.Workload]; !ok || coldMs[i] < v {
				fastest[sm.q.Workload] = coldMs[i]
			}
		}
		perBench := make([]float64, 0, len(fastest))
		for _, v := range fastest {
			perBench = append(perBench, v)
		}
		coldP := median(perBench)
		m.set("ns_per_inst", coldP*1e6/insts)
		m.set("setup_s", median(setupS))
		m.set("warm_ms", median(warmMs))
		m.set("peak_rss_mb", peakRSSMiB())
		return rep, nil
	}

	requests := float64(len(warm) + len(cold))
	m.set("simserver.shed_ratio", shed/requests)
	m.set("simserver.shared_ratio", ratio(shared, float64(len(warm))))
	m.set("load.late_ms_p99", quantile(lateMs, 0.99))
	m.set("load.warm_ms_p99", quantile(warmMs, 0.99))
	m.set("gc.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/requests)
	m.set("gc.cycles_per_op", float64(after.NumGC-before.NumGC)/requests)
	q0 := p.warmKeys[0]
	eng := experiments.NewRunner(ssc)
	keyFn := func() (runner.Key, error) { return eng.KeyFor(q0.Workload, q0.Seed, mod(q0)) }
	if err := runnerProbes(sp, root, o.workDir, keyFn, warmRes, m); err != nil {
		return nil, err
	}
	m.set("simserver.overhead_ms", median(warmMs)-m["runner.key_us"]/1e3-m["runner.marshal_ms"])

	c, err := measureCosts(sp, root)
	if err != nil {
		return nil, err
	}
	setCosts(m, c)
	if err := serviceLayers(o, p, sp, root, coldRes, c, m); err != nil {
		return nil, err
	}
	sp.end(root)
	printSelfTimes(o.out, sp)
	return rep, sp.writeChrome(o.traceOut)
}

// serviceLayers replays the cold requests' simulations directly, one per
// benchmark, to split a cold request into synthesis, machine build and
// stepping, and feeds their event counts to the ledger. Each replay must
// reproduce the service's result.
func serviceLayers(o options, p plan, sp *spans, parent int, refs []*system.Result, c costs, m metricSet) error {
	id := sp.begin("cold replay", parent, 0)
	defer sp.end(id)
	var synth, builds []float64
	var runNs, simulated float64
	var results []*system.Result
	for i, q := range p.cold {
		if i == len(workloads.Names()) {
			break
		}
		spec, err := workloads.ByName(q.body.Workload)
		if err != nil {
			return err
		}
		cfg := system.DefaultConfig()
		cfg.Instructions, cfg.Warmup = o.scale.instructions, o.scale.warm
		mod(q.body)(&cfg)
		bid := sp.begin("workloads.Spec.Build", id, 0)
		t := time.Now()
		tr := spec.Build(o.scale.traceLen, q.body.Seed)
		synth = append(synth, ms(time.Since(t)))
		sp.end(bid)
		one := cfg
		one.Instructions, one.Warmup = 1, 0
		d, _, err := timedRun(sp, id, "system.Run (1 instruction)", one, tr)
		if err != nil {
			return err
		}
		builds = append(builds, ms(d))
		d, res, err := timedRun(sp, id, "system.Run", cfg, tr)
		if err != nil {
			return err
		}
		a, aerr := json.Marshal(res)
		b, berr := json.Marshal(refs[i])
		if aerr != nil || berr != nil || !bytes.Equal(a, b) {
			return fmt.Errorf("direct run of %s seed %d differs from the reference run", q.body.Workload, q.body.Seed)
		}
		runNs += float64(d.Nanoseconds())
		simulated += float64(cfg.Instructions + cfg.Warmup)
		results = append(results, res)
	}
	buildMs := median(builds)
	m.set("workloads.synth_ms", median(synth))
	m.set("system.build_ms", buildMs)
	nsPerInst := runNs / simulated
	m.set("system.step_ns", nsPerInst-buildMs*1e6*float64(len(results))/simulated)
	t := tallyResults(results)
	t.layerMetrics(m)
	ledger(o.out, "service (cold replays)", t.attribution(c), nsPerInst, buildMs*1e6*float64(len(results))/simulated, m)
	return nil
}

func timedRun(sp *spans, parent int, name string, cfg system.Config, tr *trace.Trace) (time.Duration, *system.Result, error) {
	runtime.GC()
	id := sp.begin(name, parent, 0)
	defer sp.end(id)
	t := time.Now()
	res, err := system.Run(cfg, tr)
	return time.Since(t), res, err
}
