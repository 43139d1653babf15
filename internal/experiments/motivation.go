package experiments

import (
	"atcsim/internal/cpu"
	"atcsim/internal/mem"
	"atcsim/internal/stats"
	"atcsim/internal/system"
)

// Fig1 reproduces the ROB head-stall characterization: average and maximum
// stall cycles per STLB-missing translation, per replay load and per
// non-replay load, on the baseline machine.
//
// Summary keys: avgTrans, avgReplay, avgNonReplay, maxReplay, and
// totalTrans, totalReplay (translation and replay stall cycles summed over
// the benchmarks).
func Fig1(r *Runner) *Report {
	t := stats.NewTable("benchmark", "avg T", "max T", "avg R", "max R", "avg NR", "max NR")
	var aT, aR, aN []float64
	var maxR, totT, totR uint64
	for _, w := range r.Scale().workloads() {
		res := r.Baseline(w)
		c := res.Cores[0].CPU
		t.AddRowf(w,
			c.TransStall.Mean(), c.TransStall.Max(),
			c.ReplayStall.Mean(), c.ReplayStall.Max(),
			c.NonReplayStall.Mean(), c.NonReplayStall.Max())
		aT = append(aT, c.TransStall.Mean())
		aR = append(aR, c.ReplayStall.Mean())
		aN = append(aN, c.NonReplayStall.Mean())
		if c.ReplayStall.Max() > maxR {
			maxR = c.ReplayStall.Max()
		}
		tt, tr := stallTotals(res)
		totT += tt
		totR += tr
	}
	t.AddRowf("mean", mean(aT), "", mean(aR), "", mean(aN), "")
	return &Report{
		ID:    "fig1",
		Title: "ROB head stalls per STLB-missing translation (T), replay (R) and non-replay (NR) load [cycles]",
		Table: t,
		Notes: []string{
			"paper: avg T=33 (max 54), avg R=191 (max 226), avg NR=47",
			"shape target: R > T for totals; NR between them",
		},
		Summary: map[string]float64{
			"avgTrans":     mean(aT),
			"avgReplay":    mean(aR),
			"avgNonReplay": mean(aN),
			"maxReplay":    float64(maxR),
			"totalTrans":   float64(totT),
			"totalReplay":  float64(totR),
		},
	}
}

// fig2 is the limit study: normalized performance with ideal L2C/LLC for
// leaf translations (T), replay loads (R) and both (TR).
//
// Summary keys: llcT, llcR, llcTR, bothTR (geomean speedups).
var fig2 = &grid{
	id:    "fig2",
	title: "Normalized performance with ideal L2C/LLC for translations (T), replays (R), both (TR)",
	cols: []column{
		ideal("LLC(T)", "llcT", func(c *system.Config) { c.LLC.IdealTranslations = true }),
		ideal("LLC(R)", "llcR", func(c *system.Config) { c.LLC.IdealReplays = true }),
		ideal("LLC(TR)", "llcTR", func(c *system.Config) { c.LLC.IdealTranslations = true; c.LLC.IdealReplays = true }),
		ideal("L2C(T)", "", func(c *system.Config) { c.L2.IdealTranslations = true }),
		ideal("L2C(R)", "", func(c *system.Config) { c.L2.IdealReplays = true }),
		ideal("L2C(TR)", "", func(c *system.Config) { c.L2.IdealTranslations = true; c.L2.IdealReplays = true }),
		ideal("L2C+LLC(TR)", "bothTR", func(c *system.Config) {
			c.L2.IdealTranslations = true
			c.L2.IdealReplays = true
			c.LLC.IdealTranslations = true
			c.LLC.IdealReplays = true
		}),
	},
	cell: speedup,
	agg:  geomeanRow,
	notes: []string{
		"paper: ideal LLC(TR) +30.7%, ideal L2C+LLC(TR) +37.6%, L2C(T) +4.7%, L2C(R) +30.2%",
		"shape target: R-idealization ≫ T-idealization; combined largest",
	},
}

// ideal is a Fig. 2 column: a cache level that serves some request class
// ideally.
func ideal(head, key string, mod func(*system.Config)) column {
	return column{head: head, key: key, label: "ideal:" + head, mod: mod}
}

// Fig3 reports which hierarchy level services leaf translations and replay
// loads on the baseline.
//
// Summary keys: transL1D, transL2, transLLC, transDRAM, replayDRAM
// (fractions).
func Fig3(r *Runner) *Report {
	t := stats.NewTable("benchmark",
		"T@L1D", "T@L2C", "T@LLC", "T@DRAM",
		"R@L1D", "R@L2C", "R@LLC", "R@DRAM")
	var agg [2][4]float64
	n := 0
	for _, w := range r.Scale().workloads() {
		res := r.Baseline(w)
		leaf := res.Cores[0].Walker.LeafService
		rep := res.Cores[0].ReplayService
		row := []interface{}{w}
		for l := mem.LvlL1D; l <= mem.LvlDRAM; l++ {
			row = append(row, leaf.Fraction(l))
			agg[0][l] += leaf.Fraction(l)
		}
		for l := mem.LvlL1D; l <= mem.LvlDRAM; l++ {
			row = append(row, rep.Fraction(l))
			agg[1][l] += rep.Fraction(l)
		}
		t.AddRowf(row...)
		n++
	}
	row := []interface{}{"mean"}
	for s := 0; s < 2; s++ {
		for l := 0; l < 4; l++ {
			row = append(row, agg[s][l]/float64(n))
		}
	}
	t.AddRowf(row...)
	return &Report{
		ID:    "fig3",
		Title: "Service level of leaf translations (T) and replay loads (R)",
		Table: t,
		Notes: []string{
			"paper: T serviced 23% L1D / 55.6% L2C / 15.1% LLC / 6.3% DRAM; >80% of replays miss the LLC",
		},
		Summary: map[string]float64{
			"transL1D":   agg[0][0] / float64(n),
			"transL2":    agg[0][1] / float64(n),
			"transLLC":   agg[0][2] / float64(n),
			"transDRAM":  agg[0][3] / float64(n),
			"replayDRAM": agg[1][3] / float64(n),
		},
	}
}

var baselinePolicies = []string{"lru", "srrip", "drrip", "ship", "hawkeye"}

// llcPolicy is the column that swaps the LLC replacement policy.
func llcPolicy(p, key string) column {
	return column{head: p, key: key, label: "llc:" + p, mod: func(c *system.Config) { c.LLC.Policy = p }}
}

// llcPolicies are llcPolicy columns, each summarized under its policy name.
func llcPolicies(policies []string) []column {
	cols := make([]column, len(policies))
	for i, p := range policies {
		cols[i] = llcPolicy(p, p)
	}
	return cols
}

// fig4 compares leaf-translation MPKI at the LLC across replacement
// policies.
//
// Summary keys: one per policy (mean leaf-translation LLC MPKI).
var fig4 = &grid{
	id:    "fig4",
	title: "Leaf-level translation MPKI at the LLC by replacement policy",
	cols:  llcPolicies(baselinePolicies),
	cell:  llcMPKI(mem.ClassTransLeaf),
	agg:   meanRow,
	notes: []string{
		"paper: vs LRU — SRRIP −14.7%, DRRIP −27.5%, SHiP −33.3%, Hawkeye +44.1% (IP-signature mistraining)",
	},
}

// fig6 compares replay-load MPKI at the LLC across the same policies.
var fig6 = &grid{
	id:    "fig6",
	title: "Replay-load MPKI at the LLC by replacement policy",
	cols:  llcPolicies(baselinePolicies),
	cell:  llcMPKI(mem.ClassReplay),
	agg:   meanRow,
	notes: []string{
		"paper: replacement policy has essentially no effect — replay blocks are dead",
	},
}

// recallRow renders a recall-distance CDF over all evicted blocks (blocks
// never recalled count as infinite distance, as in the paper's figures).
func recallRow(t *stats.Table, label string, rc system.Recall) {
	if !rc.Valid() {
		t.AddRow(label, "-", "-", "-", "-", "0")
		return
	}
	t.AddRowf(label,
		rc.Within(10), rc.Within(50), rc.Within(100), rc.Within(500),
		rc.Evictions)
}

// Fig5 reports the recall-distance distribution of leaf translations at the
// LLC and L2C.
//
// Summary keys: llcWithin50, l2Within50.
func Fig5(r *Runner) *Report {
	t := stats.NewTable("series", "<=10", "<=50", "<=100", "<=500", "samples")
	var llc50, l250 []float64
	for _, w := range r.Scale().workloads() {
		res := r.Run("recall", w, func(c *system.Config) { c.TrackRecall = true })
		recallRow(t, w+"@LLC", res.LLCRecallTrans)
		recallRow(t, w+"@L2C", res.L2RecallTrans)
		if res.LLCRecallTrans.Valid() {
			llc50 = append(llc50, res.LLCRecallTrans.Within(50))
		}
		if res.L2RecallTrans.Valid() {
			l250 = append(l250, res.L2RecallTrans.Within(50))
		}
	}
	return &Report{
		ID:    "fig5",
		Title: "Recall distance of leaf translations at the LLC (A) and L2C (B)",
		Table: t,
		Notes: []string{
			"paper: ~30% of translation blocks recall within 50 unique set accesses",
		},
		Summary: map[string]float64{
			"llcWithin50": mean(llc50),
			"l2Within50":  mean(l250),
		},
	}
}

// Fig7 reports the recall-distance distribution of replay loads.
//
// Summary keys: llcBeyond50 (fraction with distance > 50).
func Fig7(r *Runner) *Report {
	t := stats.NewTable("series", "<=10", "<=50", "<=100", "<=500", "samples")
	var beyond []float64
	for _, w := range r.Scale().workloads() {
		res := r.Run("recall", w, func(c *system.Config) { c.TrackRecall = true })
		recallRow(t, w+"@LLC", res.LLCRecallReplay)
		recallRow(t, w+"@L2C", res.L2RecallReplay)
		if res.LLCRecallReplay.Valid() {
			beyond = append(beyond, 1-res.LLCRecallReplay.Within(50))
		}
	}
	return &Report{
		ID:    "fig7",
		Title: "Recall distance of replay loads at the LLC (A) and L2C (B)",
		Table: t,
		Notes: []string{
			"paper: >60% of replay blocks have recall distance beyond 50 — unkeepable",
		},
		Summary: map[string]float64{"llcBeyond50": mean(beyond)},
	}
}

// prefetchers configures the data prefetchers at the L1D and the L2C
// ("none" disables one).
func prefetchers(l1d, l2 string) func(*system.Config) {
	return func(c *system.Config) {
		c.L1DPrefetcher = l1d
		c.L2Prefetcher = l2
	}
}

// prefetcher is the Fig. 8 column of one prefetcher setup.
func prefetcher(name, l1d, l2 string) column {
	return column{head: name, key: name, label: "pf:" + name, mod: prefetchers(l1d, l2)}
}

// fig8 measures LLC replay MPKI with and without data prefetchers.
//
// Summary keys: one per prefetcher setup (mean replay LLC MPKI).
var fig8 = &grid{
	id:    "fig8",
	title: "LLC replay MPKI with and without data prefetchers",
	cols: []column{
		prefetcher("none", "none", "none"),
		prefetcher("ipcp", "ipcp", "none"),
		prefetcher("spp", "none", "spp"),
		prefetcher("bingo", "none", "bingo"),
		prefetcher("isb", "none", "isb"),
	},
	cell: llcMPKI(mem.ClassReplay),
	agg:  meanRow,
	notes: []string{
		"paper: spatial prefetchers leave replay MPKI essentially unchanged (<1% improvement); ISB helps some benchmarks",
	},
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stallTotals extracts translation/replay stall-cycle totals.
func stallTotals(res *system.Result) (trans, replay uint64) {
	return res.StallCycles(cpu.StallTranslation), res.StallCycles(cpu.StallReplay)
}
