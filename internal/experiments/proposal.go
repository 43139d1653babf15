package experiments

import (
	"atcsim/internal/mem"
	"atcsim/internal/stats"
	"atcsim/internal/system"
)

// tPolicies is the paper's T-policy pair: T-DRRIP at the L2C, T-SHiP at the
// LLC.
func tPolicies(c *system.Config) {
	c.L2.Policy = "t-drrip"
	c.LLC.Policy = "t-ship"
}

// fig10 demonstrates the misconfiguration the paper warns about: inserting
// replay loads at RRPV=0 together with the pinned translations degrades
// performance relative to the proper T-policies.
//
// Summary keys: degradation (geomean speedup of the misconfiguration over
// the proper T-policies; < 1 means degraded, as the paper reports).
var fig10 = &grid{
	id:    "fig10",
	title: "Degradation when replay loads are inserted at RRPV=0 (DRRIP at L2C, SHiP at LLC)",
	cols: []column{
		{head: "proper T-policies", label: "fig10:proper", mod: tPolicies, noAgg: true},
		{head: "replay@RRPV0", label: "fig10:replay0", noAgg: true, mod: func(c *system.Config) {
			c.L2.Policy = "drrip-replay0"
			c.LLC.Policy = "ship-replay0"
		}},
		{head: "ratio", key: "degradation", of: func(row []float64) float64 { return row[1] / row[0] }},
	},
	cell: speedup,
	agg:  geomeanRow,
	notes: []string{
		"paper: replay blocks at RRPV=0 pressure the pinned translations and hurt performance",
	},
}

// fig12 isolates the signature enhancement: leaf-translation MPKI at the
// LLC for baseline SHiP, SHiP with the new translation/replay-aware
// signatures only (NewSign), full T-SHiP, and the Hawkeye variants.
//
// Summary keys: ship, shipNewsig, tShip, hawkeye, tHawkeye (mean MPKI).
var fig12 = &grid{
	id:    "fig12",
	title: "Leaf-translation MPKI at the LLC: SHiP vs NewSign vs T-SHiP (and Hawkeye variants)",
	cols: []column{
		llcPolicy("ship", "ship"),
		llcPolicy("ship-newsig", "shipNewsig"),
		llcPolicy("t-ship", "tShip"),
		llcPolicy("hawkeye", "hawkeye"),
		llcPolicy("t-hawkeye", "tHawkeye"),
	},
	cell: llcMPKI(mem.ClassTransLeaf),
	agg:  meanRow,
	notes: []string{
		"paper: the new signatures alone reduce translation MPKI; pinning leaf translations (T-SHiP) reduces it further",
	},
}

// fig14 is the headline result: normalized performance of the cumulative
// enhancements T-DRRIP → +T-SHiP → +ATP → +TEMPO over the baseline.
//
// Summary keys: t-drrip, t-ship, atp, tempo (geomean speedups), max
// (largest per-benchmark speedup of the full configuration).
var fig14 = &grid{
	id:    "fig14",
	title: "Normalized performance of the cumulative enhancements",
	cols: []column{
		enhanced("+t-drrip", "t-drrip", system.TDRRIP),
		enhanced("+t-ship", "t-ship", system.TSHiP),
		enhanced("+atp", "atp", system.ATP),
		enhanced("+tempo", "tempo", system.TEMPO),
	},
	cell: speedup,
	agg:  geomeanRow,
	derive: func(col func(string) []float64, sum map[string]float64) {
		sum["max"] = largest(col("tempo"))
	},
	notes: []string{
		"paper: T-DRRIP +0.5%, +T-SHiP +2.9%, +ATP +4.8%, +TEMPO +5.1% on average; up to +10.6%",
	},
}

// withPrefetcher is the Fig. 15 column of one prefetcher setup: the full
// enhancement stack over the baseline with that prefetcher.
func withPrefetcher(name, l1d, l2 string) column {
	return paired(name, name, "pf:"+name, "pf+enh:"+name, system.TEMPO, prefetchers(l1d, l2))
}

// fig15 evaluates the full enhancement stack on top of baselines that
// already include a data prefetcher.
//
// Summary keys: one per prefetcher (geomean speedup of full enhancements
// over the prefetching baseline).
var fig15 = &grid{
	id:    "fig15",
	title: "Normalized performance of the enhancements in the presence of data prefetchers",
	cols: []column{
		withPrefetcher("ipcp", "ipcp", "none"),
		withPrefetcher("spp", "none", "spp"),
		withPrefetcher("bingo", "none", "bingo"),
		withPrefetcher("isb", "none", "isb"),
	},
	cell: speedup,
	agg:  geomeanRow,
	notes: []string{
		"paper: +11.2% over IPCP, +7.5% over Bingo, +6.4% over SPP, +7.2% over ISB",
	},
}

// Fig16 quantifies the ROB stall-cycle reduction of the full enhancement
// stack, split into the STLB-miss (translation) part and the replay part.
//
// Summary keys: transReduction, replayReduction, totalReduction (fractions).
func Fig16(r *Runner) *Report {
	t := stats.NewTable("benchmark", "T stall reduction", "R stall reduction", "total reduction")
	var rt, rr, tot []float64
	for _, w := range r.Scale().workloads() {
		base := r.Baseline(w)
		// The paper attributes the STLB-miss stall reduction to the
		// improved caching (T-DRRIP + T-SHiP) and the replay stall
		// reduction to ATP + TEMPO on top of it.
		pol := r.Enhanced(w, system.TSHiP)
		enh := r.Enhanced(w, system.TEMPO)
		bt, br := stallTotals(base)
		pt, _ := stallTotals(pol)
		et, er := stallTotals(enh)
		redT := reduction(bt, pt)
		redR := reduction(br, er)
		redTot := reduction(bt+br, et+er)
		t.AddRowf(w, redT, redR, redTot)
		if bt > 0 {
			rt = append(rt, redT)
		}
		if br > 0 {
			rr = append(rr, redR)
		}
		if bt+br > 0 {
			tot = append(tot, redTot)
		}
	}
	t.AddRowf("mean", mean(rt), mean(rr), mean(tot))
	return &Report{
		ID:    "fig16",
		Title: "Reduction in ROB stall cycles due to STLB misses (T) and replay loads (R)",
		Table: t,
		Notes: []string{
			"paper: STLB-miss stalls −28.76%, replay stalls −18.5%, combined −46.7% of translation-related stalls",
		},
		Summary: map[string]float64{
			"transReduction":  mean(rt),
			"replayReduction": mean(rr),
			"totalReduction":  mean(tot),
		},
	}
}

func reduction(base, enh uint64) float64 {
	if base == 0 {
		return 0
	}
	return 1 - float64(enh)/float64(base)
}
