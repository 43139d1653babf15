package experiments

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"atcsim/internal/trace"
)

// testScale keeps experiment tests fast while exercising every code path:
// one benchmark per STLB category.
func testScale() Scale {
	return Scale{
		TraceLen:     120_000,
		Instructions: 60_000,
		Warmup:       20_000,
		Workloads:    []string{"xalancbmk", "mcf", "pr"},
		Seed:         1,
	}
}

// byID runs one catalog experiment on r. A failed run fails the test: a
// failed report has an empty Summary, on which comparisons can pass.
func byID(t *testing.T, r *Runner, id string) *Report {
	t.Helper()
	rep, err := ByIDWith(r, id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != "" {
		t.Fatalf("%s: %s", id, rep.Failed)
	}
	return rep
}

func TestIDsCoverEveryExperiment(t *testing.T) {
	ids := IDs()
	if len(ids) != 31 {
		t.Fatalf("IDs() = %d entries: %v", len(ids), ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID(testScale(), "fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunnerCaching(t *testing.T) {
	r := NewRunner(testScale())
	a := r.Baseline("mcf")
	b := r.Baseline("mcf")
	if a != b {
		t.Error("baseline result not memoized")
	}
	if tryTrace(t, r, "mcf", r.Scale().Seed) != tryTrace(t, r, "mcf", r.Scale().Seed) {
		t.Error("trace not memoized")
	}
}

// tryTrace is r.TryTraceSeeded, failing the test on error.
func tryTrace(t *testing.T, r *Runner, name string, seed int64) *trace.Trace {
	t.Helper()
	tr, err := r.TryTraceSeeded(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTraceMemoKeepsScaleSeedsOnly pins the trace memo's bound: runs at
// any seed but the scale's Seed synthesize their trace and drop it (the
// robustness seeds 7 and 13 included), while Seed keeps one shared trace.
// Results stay memoized at every seed.
func TestTraceMemoKeepsScaleSeedsOnly(t *testing.T) {
	sc := testScale()
	sc.TraceLen, sc.Instructions, sc.Warmup = 20_000, 5_000, 1_000
	r := NewRunner(sc)
	for seed := int64(100); seed < 105; seed++ {
		if _, _, err := r.RunOne(context.Background(), "fresh", "xalancbmk", seed, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.traces.Len(); n != 0 {
		t.Fatalf("runs at five non-scale seeds left %d memoized traces, want 0", n)
	}
	if _, src, err := r.RunOne(context.Background(), "fresh", "xalancbmk", 100, 0, nil); err != nil || src != SourceShared {
		t.Fatalf("repeat run at seed 100: source %q, err %v; want the memoized result", src, err)
	}
	if tryTrace(t, r, "xalancbmk", 100) == tryTrace(t, r, "xalancbmk", 100) {
		t.Error("trace at a non-scale seed was memoized")
	}
	for _, seed := range []int64{7, 13} {
		if tryTrace(t, r, "xalancbmk", seed) == tryTrace(t, r, "xalancbmk", seed) {
			t.Errorf("trace at robustness seed %d was memoized", seed)
		}
	}
	if tryTrace(t, r, "xalancbmk", sc.Seed) != tryTrace(t, r, "xalancbmk", sc.Seed) {
		t.Errorf("trace at scale seed %d not memoized", sc.Seed)
	}
	if n := r.traces.Len(); n != 1 {
		t.Errorf("memo holds %d traces, want 1 (the scale seed's)", n)
	}
}

func TestFig1Shape(t *testing.T) {
	rep := Fig1(NewRunner(testScale()))
	if rep.Summary["avgReplay"] <= 0 {
		t.Fatal("no replay stalls measured")
	}
	// Paper shape: replay loads dominate the ROB-head stall budget.
	if rep.Summary["totalReplay"] <= rep.Summary["totalTrans"] {
		t.Errorf("total replay stalls %.0f not > translation stalls %.0f",
			rep.Summary["totalReplay"], rep.Summary["totalTrans"])
	}
	if !strings.Contains(rep.String(), "fig1") {
		t.Error("report text missing id")
	}
}

func TestFig2IdealOrdering(t *testing.T) {
	rep := byID(t, NewRunner(testScale()), "fig2")
	// Scale-robust shape checks: both idealizations help, the combined
	// idealization beats either alone (within noise), and there is real
	// headroom. (The full-scale run additionally shows LLC(R) ≫ LLC(T)
	// on the complete suite, as the paper reports; at this reduced scale
	// mcf's serial walk chain inflates the T mode.)
	if rep.Summary["llcR"] < 1.02 {
		t.Errorf("LLC(R) %.3f shows no replay headroom", rep.Summary["llcR"])
	}
	if rep.Summary["bothTR"] < rep.Summary["llcR"]*0.98 ||
		rep.Summary["bothTR"] < rep.Summary["llcT"]*0.98 {
		t.Errorf("both(TR) %.3f below single modes (R %.3f, T %.3f)",
			rep.Summary["bothTR"], rep.Summary["llcR"], rep.Summary["llcT"])
	}
	if rep.Summary["bothTR"] <= 1.0 {
		t.Errorf("ideal hierarchy speedup %.3f not > 1", rep.Summary["bothTR"])
	}
}

func TestFig3Fractions(t *testing.T) {
	rep := byID(t, NewRunner(testScale()), "fig3")
	total := rep.Summary["transL1D"] + rep.Summary["transL2"] +
		rep.Summary["transLLC"] + rep.Summary["transDRAM"]
	if total < 0.99 || total > 1.01 {
		t.Errorf("translation service fractions sum to %.3f", total)
	}
	// Paper: most replays miss the LLC; most translations are on-chip.
	if rep.Summary["replayDRAM"] < 0.4 {
		t.Errorf("replay DRAM fraction %.2f, want majority", rep.Summary["replayDRAM"])
	}
	if rep.Summary["transDRAM"] > 0.5 {
		t.Errorf("translation DRAM fraction %.2f too high", rep.Summary["transDRAM"])
	}
}

func TestFig4PoliciesProduceData(t *testing.T) {
	rep := byID(t, NewRunner(testScale()), "fig4")
	for _, p := range baselinePolicies {
		if _, ok := rep.Summary[p]; !ok {
			t.Errorf("missing policy %q", p)
		}
	}
	// pr at this scale must show translation pressure under every policy.
	if rep.Summary["lru"] <= 0 {
		t.Error("no translation misses at LLC under LRU")
	}
}

func TestFig6ReplacementDoesNotFixReplays(t *testing.T) {
	rep := byID(t, NewRunner(testScale()), "fig6")
	// Shape: replay MPKI roughly equal across policies (within 25%).
	lru := rep.Summary["lru"]
	for _, p := range baselinePolicies {
		if v := rep.Summary[p]; v < lru*0.75 || v > lru*1.25 {
			t.Errorf("replay MPKI with %s = %.2f deviates from LRU %.2f", p, v, lru)
		}
	}
}

func TestFig5And7RecallShapes(t *testing.T) {
	r := NewRunner(testScale())
	f5 := byID(t, r, "fig5")
	f7 := byID(t, r, "fig7")
	// Translations show near-horizon recalls; replays mostly do not.
	if f5.Summary["llcWithin50"] <= 0 && f5.Summary["l2Within50"] <= 0 {
		t.Error("no translation recall mass measured")
	}
	if f7.Summary["llcBeyond50"] < 0.3 {
		t.Errorf("replay recall beyond-50 fraction %.2f, want large", f7.Summary["llcBeyond50"])
	}
}

func TestFig8PrefetchersDoNotFixReplays(t *testing.T) {
	rep := byID(t, NewRunner(testScale()), "fig8")
	none := rep.Summary["none"]
	if none <= 0 {
		t.Fatal("no replay misses at LLC")
	}
	for _, pf := range []string{"ipcp", "spp", "bingo"} {
		if v := rep.Summary[pf]; v < none*0.7 {
			t.Errorf("spatial prefetcher %s cut replay MPKI to %.2f of %.2f — too effective", pf, v, none)
		}
	}
}

func TestFig10Degradation(t *testing.T) {
	rep := byID(t, NewRunner(testScale()), "fig10")
	if rep.Summary["degradation"] >= 1.005 {
		t.Errorf("replay@RRPV0 unexpectedly outperformed proper T-policies: %.3f",
			rep.Summary["degradation"])
	}
}

func TestFig12SignatureLadder(t *testing.T) {
	rep := byID(t, NewRunner(testScale()), "fig12")
	// T-SHiP must not be worse than baseline SHiP at keeping translations.
	if rep.Summary["tShip"] > rep.Summary["ship"]*1.05 {
		t.Errorf("T-SHiP MPKI %.2f worse than SHiP %.2f", rep.Summary["tShip"], rep.Summary["ship"])
	}
	if rep.Summary["tHawkeye"] > rep.Summary["hawkeye"]*1.05 {
		t.Errorf("T-Hawkeye MPKI %.2f worse than Hawkeye %.2f", rep.Summary["tHawkeye"], rep.Summary["hawkeye"])
	}
}

func TestFig14HeadlineSpeedup(t *testing.T) {
	rep := byID(t, NewRunner(testScale()), "fig14")
	if rep.Summary["tempo"] <= 1.0 {
		t.Errorf("full enhancements geomean %.4f not > 1", rep.Summary["tempo"])
	}
	if rep.Summary["max"] < rep.Summary["tempo"] {
		t.Error("max < geomean")
	}
	// max is the largest cell of the +tempo column, not of another one.
	lines := strings.Split(strings.TrimSpace(rep.Table.CSV()), "\n")
	col := slices.Index(strings.Split(lines[0], ","), "+tempo")
	if col < 0 {
		t.Fatalf("no +tempo column in %q", lines[0])
	}
	best := ""
	for _, l := range lines[1:] {
		f := strings.Split(l, ",")
		if f[0] == "geomean" {
			continue
		}
		v, err := strconv.ParseFloat(f[col], 64)
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := strconv.ParseFloat(best, 64); best == "" || v > b {
			best = f[col]
		}
	}
	if got := fmt.Sprintf("%.3f", rep.Summary["max"]); got != best {
		t.Errorf("max = %s, largest +tempo cell = %s", got, best)
	}
}

func TestFig16StallReduction(t *testing.T) {
	rep := Fig16(NewRunner(testScale()))
	if rep.Summary["replayReduction"] <= 0 {
		t.Errorf("replay stall reduction %.3f not positive", rep.Summary["replayReduction"])
	}
}

func TestFig17SMT(t *testing.T) {
	sc := testScale()
	sc.Workloads = []string{"pr", "xalancbmk"}
	rep := byID(t, NewRunner(sc), "fig17")
	if rep.Summary["mean"] <= 0 {
		t.Fatal("no SMT speedup measured")
	}
}

func TestFig18STLBRecall(t *testing.T) {
	rep := byID(t, NewRunner(testScale()), "fig18")
	if rep.Summary["beyond50"] <= 0 {
		t.Error("no dead-STLB-entry mass measured")
	}
}

func TestSensitivitySweeps(t *testing.T) {
	sc := testScale()
	sc.Workloads = []string{"pr"}
	r := NewRunner(sc)
	for _, rep := range []*Report{byID(t, r, "fig19"), byID(t, r, "fig20"), byID(t, r, "fig21")} {
		if len(rep.Summary) == 0 {
			t.Errorf("%s: empty summary", rep.ID)
		}
		for k, v := range rep.Summary {
			if v <= 0 {
				t.Errorf("%s: %s speedup %.3f", rep.ID, k, v)
			}
		}
	}
}

func TestTables(t *testing.T) {
	r := NewRunner(testScale())
	t1 := TableI(r)
	if !strings.Contains(t1.Table.String(), "352-entry ROB") {
		t.Error("Table I missing ROB size")
	}
	t2 := TableII(r)
	if t2.Summary["stlb:pr"] <= t2.Summary["stlb:xalancbmk"] {
		t.Errorf("Table II: pr STLB MPKI %.1f not above xalancbmk %.1f",
			t2.Summary["stlb:pr"], t2.Summary["stlb:xalancbmk"])
	}
}

func TestAblations(t *testing.T) {
	sc := testScale()
	sc.Workloads = []string{"pr"}
	r := NewRunner(sc)

	dec := byID(t, r, "ablation-decompose")
	if dec.Summary["full"] <= 0 {
		t.Error("decomposition missing full-stack result")
	}

	wk := byID(t, r, "ablation-walkers")
	// Fewer walkers → lower baseline IPC on a TLB-stressing workload.
	if wk.Summary["base:1"] > wk.Summary["base:4"] {
		t.Errorf("1-walker IPC %.4f > 4-walker IPC %.4f", wk.Summary["base:1"], wk.Summary["base:4"])
	}

	rd := byID(t, r, "ablation-replaydelay")
	// A wider replay window gives ATP at least as much to hide.
	if rd.Summary["atpGain:60"] < rd.Summary["atpGain:0"]-0.02 {
		t.Errorf("ATP gain at d=60 (%.3f) below d=0 (%.3f)",
			rd.Summary["atpGain:60"], rd.Summary["atpGain:0"])
	}

	scb := byID(t, r, "ablation-scatter")
	// Contiguous frames enjoy better DRAM row locality.
	if scb.Summary["rowHitContig"] < scb.Summary["rowHitScatter"] {
		t.Errorf("contiguous row-hit rate %.3f < scattered %.3f",
			scb.Summary["rowHitContig"], scb.Summary["rowHitScatter"])
	}

	hp := byID(t, r, "ablation-hugepages")
	if hp.Summary["mpki2M"] > hp.Summary["mpki4K"]/10 {
		t.Errorf("huge-page STLB MPKI %.2f not ≪ 4K %.2f", hp.Summary["mpki2M"], hp.Summary["mpki4K"])
	}

	th := byID(t, r, "ablation-t-hawkeye")
	if th.Summary["full"] <= 0 {
		t.Error("t-hawkeye ablation empty")
	}
}

func TestRobustness(t *testing.T) {
	sc := testScale()
	sc.Workloads = []string{"pr", "xalancbmk"}
	rep := Robustness(NewRunner(sc))
	if rep.Summary["mean"] <= 0 || rep.Summary["worstMin"] <= 0 {
		t.Fatalf("summary = %v", rep.Summary)
	}
	// The enhancements must not flip to a large loss on any seed.
	if rep.Summary["worstMin"] < 0.97 {
		t.Errorf("worst per-seed speedup %.3f — result is seed noise", rep.Summary["worstMin"])
	}
}

func TestComparison(t *testing.T) {
	rep := byID(t, NewRunner(testScale()), "comparison")
	if rep.Summary["ours"] <= 1.0 {
		t.Errorf("our enhancements geomean %.4f not > 1", rep.Summary["ours"])
	}
	// The paper's central comparison claim: the enhancements outperform the
	// capacity-management prior works.
	if rep.Summary["oursOverCbpred"] <= 1.0 {
		t.Errorf("ours/cbpred = %.4f, want > 1", rep.Summary["oursOverCbpred"])
	}
	if rep.Summary["ours"] <= rep.Summary["csalt"] {
		t.Errorf("ours %.4f not above csalt %.4f", rep.Summary["ours"], rep.Summary["csalt"])
	}
}

func TestMultiCoreQuick(t *testing.T) {
	sc := testScale()
	sc.Instructions = 30_000
	sc.Warmup = 10_000
	rep := byID(t, NewRunner(sc), "multicore")
	if rep.Summary["mean"] <= 0 {
		t.Error("multicore speedup missing")
	}
}

func TestSeededSpeedups(t *testing.T) {
	sc := testScale()
	sc.Workloads = []string{"pr"}
	r := NewRunner(sc)
	sp := r.SeededSpeedupsAt("pr", []int64{1, 2, 3})
	if len(sp) != 3 {
		t.Fatalf("speedups = %v", sp)
	}
	for i, s := range sp {
		if s <= 0.9 {
			t.Errorf("seed %d speedup %.3f implausible", i, s)
		}
	}
	// Distinct seeds produce distinct traces (and almost surely distinct
	// speedups).
	if sp[0] == sp[1] && sp[1] == sp[2] {
		t.Error("all seeds produced identical speedups — seeding inert?")
	}
}
