package experiments

import "atcsim/internal/system"

// comparison reproduces §V-B: the paper's enhancements against simplified
// re-implementations of the prior proposals it is compared with — CbPred
// (dead-block bypass at the LLC, Mazumdar et al. HPCA'21) and CSALT-D
// (translation/data cache partitioning, Marathe et al. MICRO'17).
//
// Summary keys: cbpred, csalt, ours (geomean speedups over the baseline),
// oursOverCbpred (the paper reports ≈ +3.1%).
var comparison = &grid{
	id:    "comparison",
	title: "Prior works (§V-B): CbPred-style dead-block bypass and CSALT-style partitioning vs the paper's enhancements",
	cols: []column{
		{head: "cbpred", key: "cbpred", label: "cmp:cbpred", mod: func(c *system.Config) { c.LLC.Policy = "cbpred" }},
		{head: "csalt", key: "csalt", label: "cmp:csalt", mod: func(c *system.Config) { c.LLC.Policy = "csalt" }},
		enhanced("ours (full)", "ours", system.TEMPO),
	},
	cell: speedup,
	agg:  geomeanRow,
	derive: func(_ func(string) []float64, sum map[string]float64) {
		sum["oursOverCbpred"] = sum["ours"] / sum["cbpred"]
	},
	notes: []string{
		"paper: the enhancements beat CbPred by ~3.1% on average; CSALT partitioning adds ~1% over a weaker baseline",
		"both prior techniques manage capacity; neither shortens the replay load's serial latency, which is where the headroom is",
	},
}
