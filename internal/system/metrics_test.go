package system

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"atcsim/internal/cache"
	"atcsim/internal/cpu"
	"atcsim/internal/mem"
	"atcsim/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden snapshots")

// sinkResults runs the fixed mix the sink exposition golden records: 4-core
// +TEMPO under both timing engines (the barrier engine fills
// Result.Parallel, the queued one Result.Queues), 2-way SMT under
// revelator, and single-core victima runs, one of them queued with an L1D
// prefetcher so the L1I/L1D deques and prefetch families both move, plus
// one synthetic Result.
func sinkResults(t *testing.T) []*Result {
	t.Helper()
	traces := parTraces(t, 30_000)
	base := DefaultConfig()
	base.Instructions = 20_000
	base.Warmup = 5_000

	var out []*Result
	add := func(r *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	for _, timing := range []string{"", TimingQueued} {
		cfg := base
		cfg.Apply(TEMPO)
		cfg.Timing = timing
		cfg.SimJobs = 1
		add(RunMulti(cfg, traces))
	}
	for _, timing := range []string{"", TimingQueued} {
		cfg := base
		cfg.Mechanism = "revelator"
		cfg.Timing = timing
		add(RunSMT(cfg, traces[0], traces[1]))
	}
	for i, timing := range []string{"", TimingQueued} {
		cfg := base
		cfg.Mechanism = "victima"
		cfg.Timing = timing
		if timing != "" {
			cfg.L1DPrefetcher = "ipcp"
		}
		add(Run(cfg, traces[i*3]))
	}
	return append(out, syntheticResult())
}

// syntheticResult gives every integer counter of a two-core Result (one
// L1D and L2 instance each, every queued level, barrier stats) a distinct
// value, so a family that stays zero in the real runs still pins which
// Result field feeds it.
func syntheticResult() *Result {
	r := &Result{
		Cores:    make([]CoreResult, 2),
		L1D:      make([]cache.Stats, 2),
		L2:       make([]cache.Stats, 2),
		Parallel: &ParallelStats{},
		Queues: []QueueLevel{
			{Name: "L1I", Level: mem.LvlL1D}, {Name: "L1D", Level: mem.LvlL1D},
			{Name: "L2C", Level: mem.LvlL2}, {Name: "LLC", Level: mem.LvlLLC},
			{Name: "DRAM", Level: mem.LvlDRAM},
		},
	}
	next := uint64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Uint64:
			next++
			v.SetUint(next * 7)
		case reflect.Int64:
			next++
			v.SetInt(int64(next * 7))
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).Name != "Cfg" && v.Field(i).CanSet() {
					fill(v.Field(i))
				}
			}
		case reflect.Array, reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Pointer:
			if !v.IsNil() {
				fill(v.Elem())
			}
		}
	}
	fill(reflect.ValueOf(r).Elem())
	return r
}

// sortedExposition renders reg as OpenMetrics and returns its HELP, TYPE and
// sample lines sorted, so the comparison ignores family order.
func sortedExposition(t *testing.T, reg *metrics.Registry) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if issues := metrics.Lint(buf.Bytes()); len(issues) > 0 {
		t.Errorf("sink exposition does not lint clean:\n%s", strings.Join(issues, "\n"))
	}
	var lines []string
	for _, l := range strings.Split(buf.String(), "\n") {
		if l != "" && l != "# EOF" {
			lines = append(lines, l)
		}
	}
	sort.Strings(lines)
	return lines
}

// TestMetricsSinkExposition pins every family name, label set, HELP and
// TYPE line, and folded value the sink publishes for a fixed mix of
// Results. Lines are compared sorted, so reordering families is free but
// renaming, relabelling or re-mapping a counter is not.
func TestMetricsSinkExposition(t *testing.T) {
	reg := metrics.New()
	sink := NewMetricsSink(reg)
	zero := sortedExposition(t, reg)
	for _, r := range sinkResults(t) {
		sink.Record(r)
	}
	got := sortedExposition(t, reg)
	if len(zero) != len(got) {
		t.Errorf("recording changed the series set: %d lines at zero, %d after", len(zero), len(got))
	}

	path := filepath.Join("testdata", "metrics_sink.golden")
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -update` to create the snapshot)", err)
	}
	if text != string(want) {
		wl := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
		for _, d := range lineDiff(wl, got) {
			t.Error(d)
		}
	}
}

// TestMetricsSinkConcurrentRecord records one Result from several
// goroutines at once; every series must end at exactly that many times its
// single-record value.
func TestMetricsSinkConcurrentRecord(t *testing.T) {
	res := syntheticResult()
	one, many := metrics.New(), metrics.New()
	NewMetricsSink(one).Record(res)
	sink := NewMetricsSink(many)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink.Record(res)
		}()
	}
	wg.Wait()
	want := one.Gather()
	for i, s := range many.Gather() {
		if s.Name != want[i].Name || s.Value != workers*want[i].Value {
			t.Errorf("%s = %v, want %s = %d x %v", s.Name, s.Value, want[i].Name, workers, want[i].Value)
		}
	}
}

// lineDiff lists the lines only one of two sorted slices holds.
func lineDiff(want, got []string) []string {
	var out []string
	i, j := 0, 0
	for i < len(want) || j < len(got) {
		switch {
		case j == len(got) || (i < len(want) && want[i] < got[j]):
			out = append(out, "missing: "+want[i])
			i++
		case i == len(want) || got[j] < want[i]:
			out = append(out, "unexpected: "+got[j])
			j++
		default:
			i++
			j++
		}
	}
	return out
}

// TestLiveGauges publishes a hand-built live Result and reads the sim_*
// gauges back from the registry: sums over cores and cache instances,
// demand classes only, the most advanced core's cycle, and progress capped
// at each thread's target.
func TestLiveGauges(t *testing.T) {
	reg := metrics.New()
	g := NewLiveGauges(reg)
	r := &Result{
		Cores: []CoreResult{
			{Instructions: 10_000, Cycles: 5_000},
			{Instructions: 10_000, Cycles: 4_000},
		},
		L1D: make([]cache.Stats, 2),
	}
	r.Cores[0].CPU.Instructions = 10_000 // frozen at its target
	r.Cores[1].CPU.Instructions = 6_000
	r.Cores[0].MMU.STLBMisses = 10
	r.Cores[1].MMU.STLBMisses = 7
	r.Cores[1].CPU.StallCycles[cpu.StallTranslation] = 100
	r.L1D[0].Miss[mem.ClassNonReplay] = 40
	r.L1D[1].Miss[mem.ClassReplay] = 2
	r.L1D[1].Miss[mem.ClassPrefetch] = 99 // not a demand class: excluded
	g.Publish(r)

	got := map[string]float64{}
	for _, s := range reg.Gather() {
		got[s.Name] = s.Value
	}
	for name, want := range map[string]float64{
		"sim_instructions":                      16_000,
		"sim_instructions_total":                20_000,
		"sim_cycle":                             5_000,
		`sim_cache_demand_misses{level="l1d"}`:  42,
		"sim_stlb_misses":                       17,
		`sim_stall_cycles{class="translation"}`: 100,
		`sim_stall_cycles{class="non-replay"}`:  0,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}

	var nilG *LiveGauges
	nilG.Publish(r) // must not panic
	g.Publish(nil)
}
