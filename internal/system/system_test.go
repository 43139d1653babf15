package system

import (
	"testing"

	"atcsim/internal/cpu"
	"atcsim/internal/mem"
	"atcsim/internal/trace"
	"atcsim/internal/workloads"
)

func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Instructions = 60_000
	cfg.Warmup = 20_000
	return cfg
}

func buildTrace(t *testing.T, name string, n int) *trace.Trace {
	t.Helper()
	s, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s.Build(n, 1)
}

func TestRunValidation(t *testing.T) {
	cfg := quickCfg()
	if _, err := Run(cfg, &trace.Trace{Name: "empty"}); err == nil {
		t.Error("empty trace accepted")
	}
	bad := cfg
	bad.Instructions = 0
	if _, err := Run(bad, workloads.Stream(1000, 1)); err == nil {
		t.Error("zero instructions accepted")
	}
	bad = cfg
	bad.PhysBits = 5
	if _, err := Run(bad, workloads.Stream(1000, 1)); err == nil {
		t.Error("bad PhysBits accepted")
	}
	bad = cfg
	bad.LLC.Policy = "nope"
	if _, err := Run(bad, workloads.Stream(1000, 1)); err == nil {
		t.Error("unknown policy accepted")
	}
	for _, every := range []int{0, -1} {
		bad = cfg
		bad.OnTick, bad.TickEvery = func(*Result) {}, every
		if _, err := Run(bad, workloads.Stream(1000, 1)); err == nil {
			t.Errorf("OnTick with TickEvery %d accepted", every)
		}
	}
}

func TestStreamRunsFastAndChaseRunsSlow(t *testing.T) {
	cfg := quickCfg()
	stream, err := Run(cfg, workloads.Stream(100_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	chase, err := Run(cfg, workloads.PointerChase(100_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if stream.IPC() <= 2*chase.IPC() {
		t.Errorf("stream IPC %.3f not ≫ chase IPC %.3f", stream.IPC(), chase.IPC())
	}
	if stream.IPC() <= 0 || stream.IPC() > 4 {
		t.Errorf("stream IPC %.3f out of range", stream.IPC())
	}
	// The chase thrashes the STLB; the stream does not.
	if chase.STLBMPKI() < 10*stream.STLBMPKI()+1 {
		t.Errorf("chase STLB MPKI %.2f vs stream %.2f", chase.STLBMPKI(), stream.STLBMPKI())
	}
	// Replay loads on the chase stall the ROB far more than translations
	// (Fig. 1's central observation).
	tr := chase.StallCycles(cpu.StallTranslation)
	rp := chase.StallCycles(cpu.StallReplay)
	if rp <= tr {
		t.Errorf("replay stalls %d not > translation stalls %d", rp, tr)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := quickCfg()
	a, err := Run(cfg, buildTrace(t, "mcf", 90_000))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(cfg, buildTrace(t, "mcf", 90_000))
	if a.Cores[0].Cycles != b.Cores[0].Cycles {
		t.Errorf("cycles differ: %d vs %d", a.Cores[0].Cycles, b.Cores[0].Cycles)
	}
	if a.LLC.TotalMiss() != b.LLC.TotalMiss() {
		t.Error("LLC misses differ between identical runs")
	}
}

func TestCategoriesOrderSTLBMPKI(t *testing.T) {
	cfg := quickCfg()
	mpki := map[string]float64{}
	for _, name := range []string{"xalancbmk", "pr"} {
		r, err := Run(cfg, buildTrace(t, name, 90_000))
		if err != nil {
			t.Fatal(err)
		}
		mpki[name] = r.STLBMPKI()
	}
	if mpki["xalancbmk"] >= mpki["pr"] {
		t.Errorf("STLB MPKI: xalancbmk %.2f >= pr %.2f", mpki["xalancbmk"], mpki["pr"])
	}
	if mpki["pr"] < 5 {
		t.Errorf("pr STLB MPKI %.2f suspiciously low", mpki["pr"])
	}
}

func TestEnhancementLadderOnTLBStress(t *testing.T) {
	tr := buildTrace(t, "pr", 90_000)
	ipcAt := map[Enhancement]float64{}
	hitAt := map[Enhancement]float64{}
	for _, e := range Enhancements() {
		cfg := quickCfg()
		cfg.Apply(e)
		r, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		ipcAt[e] = r.IPC()
		hitAt[e] = r.TranslationHitRate()
	}
	// The full stack must beat the baseline on a High-MPKI workload.
	if ipcAt[TEMPO] <= ipcAt[Baseline] {
		t.Errorf("full enhancements IPC %.4f <= baseline %.4f", ipcAt[TEMPO], ipcAt[Baseline])
	}
	// Translation-conscious policies must raise the on-chip translation
	// hit rate (the paper reports ~99%).
	if hitAt[TSHiP] < hitAt[Baseline] {
		t.Errorf("T-policies lowered translation hit rate: %.3f -> %.3f",
			hitAt[Baseline], hitAt[TSHiP])
	}
}

func TestApplyEnhancementConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Apply(TEMPO)
	if cfg.L2.Policy != "t-drrip" || cfg.LLC.Policy != "t-ship" {
		t.Errorf("policies = %s/%s", cfg.L2.Policy, cfg.LLC.Policy)
	}
	if !cfg.L2.ATP || !cfg.LLC.ATP || !cfg.TEMPO {
		t.Error("ATP/TEMPO flags not set")
	}
	cfg.Apply(Baseline)
	if cfg.L2.Policy != "drrip" || cfg.LLC.Policy != "ship" || cfg.TEMPO {
		t.Error("Apply(Baseline) did not reset")
	}
}

func TestIdealTranslationModeHelps(t *testing.T) {
	tr := buildTrace(t, "pr", 80_000)
	cfg := quickCfg()
	base, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	ideal := quickCfg()
	ideal.L2.IdealTranslations = true
	ideal.L2.IdealReplays = true
	ideal.LLC.IdealTranslations = true
	ideal.LLC.IdealReplays = true
	r, err := Run(ideal, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC() <= base.IPC() {
		t.Errorf("ideal TR IPC %.4f <= baseline %.4f", r.IPC(), base.IPC())
	}
}

func TestRecallTracking(t *testing.T) {
	cfg := quickCfg()
	cfg.TrackRecall = true
	r, err := Run(cfg, buildTrace(t, "pr", 80_000))
	if err != nil {
		t.Fatal(err)
	}
	if !r.LLCRecallTrans.Valid() || !r.L2RecallTrans.Valid() || !r.Cores[0].STLBRecall.Valid() {
		t.Fatal("recall distributions missing")
	}
	// Within(∞) can never exceed 1.
	if w := r.LLCRecallTrans.Within(1 << 20); w > 1.0001 {
		t.Errorf("recall fraction %f > 1", w)
	}
}

func TestSMTRun(t *testing.T) {
	cfg := quickCfg()
	cfg.Instructions = 40_000
	cfg.Warmup = 10_000
	r, err := RunSMT(cfg, buildTrace(t, "pr", 60_000), buildTrace(t, "xalancbmk", 60_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cores) != 2 {
		t.Fatalf("cores = %d", len(r.Cores))
	}
	if len(r.L2) != 1 || len(r.L1D) != 1 {
		t.Errorf("SMT should share one L1D/L2: %d/%d", len(r.L1D), len(r.L2))
	}
	for i, c := range r.Cores {
		if c.IPC <= 0 {
			t.Errorf("thread %d IPC = %f", i, c.IPC)
		}
	}
	// Harmonic speedup of a run against itself is 1.
	if hs := r.HarmonicSpeedupOver(r); hs < 0.999 || hs > 1.001 {
		t.Errorf("self harmonic speedup = %f", hs)
	}
}

func TestMultiCoreRun(t *testing.T) {
	cfg := quickCfg()
	cfg.Instructions = 30_000
	cfg.Warmup = 10_000
	traces := []*trace.Trace{
		buildTrace(t, "pr", 50_000),
		buildTrace(t, "mcf", 50_000),
		buildTrace(t, "xalancbmk", 50_000),
		buildTrace(t, "canneal", 50_000),
	}
	r, err := RunMulti(cfg, traces)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cores) != 4 || len(r.L2) != 4 {
		t.Fatalf("topology wrong: %d cores, %d L2s", len(r.Cores), len(r.L2))
	}
	if _, err := RunMulti(cfg, nil); err == nil {
		t.Error("empty mix accepted")
	}
}

// Every DRAM access, read or posted writeback, has one row-buffer outcome,
// so the three row counters sum to Reads + Writes.
func TestDRAMRowOutcomesCountEveryAccess(t *testing.T) {
	r, err := Run(quickCfg(), buildTrace(t, "cc", 80_000))
	if err != nil {
		t.Fatal(err)
	}
	d := r.DRAM
	if d.Writes == 0 {
		t.Fatal("run posted no writebacks")
	}
	if got, want := d.RowHits+d.RowClosed+d.RowMisses, d.Reads+d.Writes; got != want {
		t.Errorf("row outcomes %d (hits %d, closed %d, misses %d), want reads %d + writes %d = %d",
			got, d.RowHits, d.RowClosed, d.RowMisses, d.Reads, d.Writes, want)
	}
}

func TestTEMPOFiresOnLLCTranslationMisses(t *testing.T) {
	cfg := quickCfg()
	cfg.Apply(TEMPO)
	r, err := Run(cfg, workloads.PointerChase(100_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.DRAM.TEMPOIssued == 0 {
		t.Error("TEMPO never fired on a chase with cold translations")
	}
	// ATP at L2C/LLC should have issued prefetches too.
	var pf uint64
	for i := range r.L2 {
		pf += r.L2[i].PrefIssued
	}
	if pf+r.LLC.PrefIssued == 0 {
		t.Error("ATP never issued a prefetch")
	}
}

func TestPrefetcherConfigs(t *testing.T) {
	tr := buildTrace(t, "tc", 60_000)
	for _, combo := range []struct{ l1d, l2 string }{
		{"ipcp", "none"}, {"none", "spp"}, {"none", "bingo"}, {"none", "isb"},
	} {
		cfg := quickCfg()
		cfg.Instructions = 30_000
		cfg.Warmup = 10_000
		cfg.L1DPrefetcher = combo.l1d
		cfg.L2Prefetcher = combo.l2
		if _, err := Run(cfg, tr); err != nil {
			t.Errorf("prefetchers %v: %v", combo, err)
		}
	}
	cfg := quickCfg()
	cfg.L2Prefetcher = "bogus"
	if _, err := Run(cfg, tr); err == nil {
		t.Error("bogus prefetcher accepted")
	}
}

func TestFig3ShapeDistributions(t *testing.T) {
	cfg := quickCfg()
	r, err := Run(cfg, buildTrace(t, "pr", 90_000))
	if err != nil {
		t.Fatal(err)
	}
	leaf := r.Cores[0].Walker.LeafService
	if leaf.Total() == 0 {
		t.Fatal("no leaf translations recorded")
	}
	rep := r.Cores[0].ReplayService
	if rep.Total() == 0 {
		t.Fatal("no replay loads recorded")
	}
	// Paper Fig. 3: most replay loads miss the whole hierarchy, while most
	// translations are serviced on-chip.
	if f := rep.Fraction(mem.LvlDRAM); f < 0.4 {
		t.Errorf("replay DRAM fraction %.2f, expected majority", f)
	}
	onchip := 1 - leaf.Fraction(mem.LvlDRAM)
	if onchip < 0.5 {
		t.Errorf("on-chip translation fraction %.2f too low", onchip)
	}
}

func TestEnhancementStrings(t *testing.T) {
	want := map[Enhancement]string{
		Baseline: "baseline", TDRRIP: "t-drrip", TSHiP: "t-ship", ATP: "atp", TEMPO: "tempo",
	}
	for e, w := range want {
		if e.String() != w {
			t.Errorf("%d.String() = %q", e, e.String())
		}
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	// The pointer-chase micro-benchmark uses dependent loads: its IPC must
	// be far below a same-size random-but-independent stream. canneal's
	// loads are independent random; chase's are serialized.
	cfg := quickCfg()
	chase, err := Run(cfg, workloads.PointerChase(80_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	indep, err := Run(cfg, buildTrace(t, "canneal", 80_000))
	if err != nil {
		t.Fatal(err)
	}
	// Per-load latency exposure: the chase's cycles-per-load must exceed
	// the independent workload's by a wide margin.
	chaseCPL := float64(chase.Cores[0].Cycles) / float64(chase.L1D[0].Access[mem.ClassNonReplay]+chase.L1D[0].Access[mem.ClassReplay])
	indepCPL := float64(indep.Cores[0].Cycles) / float64(indep.L1D[0].Access[mem.ClassNonReplay]+indep.L1D[0].Access[mem.ClassReplay])
	if chaseCPL < 2*indepCPL {
		t.Errorf("chase cycles/load %.1f not ≫ independent %.1f", chaseCPL, indepCPL)
	}
}

func TestHugePagesCollapseSTLBPressure(t *testing.T) {
	tr := buildTrace(t, "pr", 90_000)
	cfg := quickCfg()
	small, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.HugePages = true
	huge, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	// THP turns a 256MB property footprint into ~128 huge pages: the STLB
	// pressure (and with it the paper's whole problem) collapses.
	if huge.STLBMPKI() > small.STLBMPKI()/10 {
		t.Errorf("huge-page STLB MPKI %.2f not ≪ 4K MPKI %.2f",
			huge.STLBMPKI(), small.STLBMPKI())
	}
	if huge.IPC() <= small.IPC() {
		t.Errorf("huge pages IPC %.4f not > 4K IPC %.4f", huge.IPC(), small.IPC())
	}
	// Walks that do happen stop at level 2.
	if huge.Cores[0].Walker.StepsPerLevel[1] != 0 {
		t.Error("level-1 PTE reads under huge pages")
	}
}
