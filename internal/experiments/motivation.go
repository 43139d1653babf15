package experiments

import (
	"slices"

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

// fig3 reports which hierarchy level services leaf translations and replay
// loads on the baseline.
//
// Summary keys: transL1D, transL2, transLLC, transDRAM, replayDRAM
// (fractions).
var fig3 = &grid{
	id:    "fig3",
	title: "Service level of leaf translations (T) and replay loads (R)",
	cols: append(serviced("T", func(res *system.Result) *stats.ServiceDist { return &res.Cores[0].Walker.LeafService },
		"transL1D", "transL2", "transLLC", "transDRAM"),
		serviced("R", func(res *system.Result) *stats.ServiceDist { return &res.Cores[0].ReplayService },
			"", "", "", "replayDRAM")...),
	agg: meanRow,
	notes: []string{
		"paper: T serviced 23% L1D / 55.6% L2C / 15.1% LLC / 6.3% DRAM; >80% of replays miss the LLC",
	},
}

// serviced is the four Fig. 3 columns of one request class: per level, the
// share of the class that level services on the baseline, summarized under
// that level's key ("" for none).
func serviced(class string, dist func(*system.Result) *stats.ServiceDist, keys ...string) []column {
	var cols []column
	for l := mem.LvlL1D; l <= mem.LvlDRAM; l++ {
		cols = append(cols, column{head: class + "@" + l.String(), key: keys[l], label: "baseline",
			cell: unpaired(func(res *system.Result) float64 { return dist(res).Fraction(l) })})
	}
	return cols
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

// recallTable is an experiment of recall-distance CDFs: one row per
// workload and series, each read off the workload's "recall" run.
type recallTable struct {
	id, title string
	first     string // header of the row-label column
	series    []recallSeries
	notes     []string
}

// recallSeries is one recall distribution of a run. A series with a
// summary key averages, over the workloads where the distribution is
// valid, the share recalled within 50 unique set accesses (beyond: the
// share recalled after more).
type recallSeries struct {
	suffix string // appended to the workload name in the row label
	of     func(*system.Result) stats.Recall
	key    string
	beyond bool
}

// entry registers the table in the experiment catalog.
func (x *recallTable) entry() catalogEntry { return catalogEntry{x.id, x.run} }

// run renders every series of every workload. A distribution over all
// evicted blocks counts blocks never recalled at infinite distance, as in
// the paper's figures; an invalid one renders as dashes.
func (x *recallTable) run(r *Runner) *Report {
	t := stats.NewTable(x.first, "<=10", "<=50", "<=100", "<=500", "samples")
	shares := make([][]float64, len(x.series))
	for _, w := range r.Scale().workloads() {
		res := r.Run("recall", w, func(c *system.Config) { c.TrackRecall = true })
		for i, s := range x.series {
			rc := s.of(res)
			if !rc.Valid() {
				t.AddRow(w+s.suffix, "-", "-", "-", "-", "0")
				continue
			}
			t.AddRowf(w+s.suffix, rc.Within(10), rc.Within(50), rc.Within(100), rc.Within(500), rc.Evictions)
			v := rc.Within(50)
			if s.beyond {
				v = 1 - v
			}
			shares[i] = append(shares[i], v)
		}
	}
	sum := map[string]float64{}
	for i, s := range x.series {
		if s.key != "" {
			sum[s.key] = mean(shares[i])
		}
	}
	return &Report{ID: x.id, Title: x.title, Table: t, Notes: slices.Clone(x.notes), Summary: sum}
}

// fig5 reports the recall-distance distribution of leaf translations at
// the LLC and L2C.
//
// Summary keys: llcWithin50, l2Within50.
var fig5 = &recallTable{
	id:    "fig5",
	title: "Recall distance of leaf translations at the LLC (A) and L2C (B)",
	first: "series",
	series: []recallSeries{
		{suffix: "@LLC", of: func(res *system.Result) stats.Recall { return res.LLCRecallTrans }, key: "llcWithin50"},
		{suffix: "@L2C", of: func(res *system.Result) stats.Recall { return res.L2RecallTrans }, key: "l2Within50"},
	},
	notes: []string{
		"paper: ~30% of translation blocks recall within 50 unique set accesses",
	},
}

// fig7 reports the recall-distance distribution of replay loads.
//
// Summary keys: llcBeyond50 (fraction with distance > 50).
var fig7 = &recallTable{
	id:    "fig7",
	title: "Recall distance of replay loads at the LLC (A) and L2C (B)",
	first: "series",
	series: []recallSeries{
		{suffix: "@LLC", of: func(res *system.Result) stats.Recall { return res.LLCRecallReplay }, key: "llcBeyond50", beyond: true},
		{suffix: "@L2C", of: func(res *system.Result) stats.Recall { return res.L2RecallReplay }},
	},
	notes: []string{
		"paper: >60% of replay blocks have recall distance beyond 50 — unkeepable",
	},
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

// largest is the largest of xs, or 0 when none is positive.
func largest(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// stallTotals extracts translation/replay stall-cycle totals.
func stallTotals(res *system.Result) (trans, replay uint64) {
	return res.StallCycles(cpu.StallTranslation), res.StallCycles(cpu.StallReplay)
}
