package experiments

import (
	"fmt"

	"atcsim/internal/stats"
	"atcsim/internal/system"
)

// The ablations quantify the model/design choices DESIGN.md calls out and
// the paper's implicit knobs: how much each enhancement contributes in
// isolation, how the page-walker count and the replay re-issue window shape
// the phenomenon, what the OS frame-scatter model is worth, what T-Hawkeye
// buys over T-SHiP, and what happens to the whole problem under 2MB pages.

// ablationRows picks one benchmark per STLB category.
var ablationRows = []string{"xalancbmk", "mcf", "pr"}

// ablationDecompose isolates each enhancement: T-policies without
// prefetching, ATP without T-policies or TEMPO, TEMPO alone (the original
// proposal it is borrowed from), and the full stack.
//
// Summary keys: tPolicies, atpOnly, tempoOnly, full (geomean speedups).
var ablationDecompose = &grid{
	id:    "ablation-decompose",
	title: "Each enhancement in isolation vs the full stack",
	cols: []column{
		{head: "t-policies", key: "tPolicies", label: "abl:t-policies", mod: tPolicies},
		{head: "atp-only", key: "atpOnly", label: "abl:atp-only", mod: func(c *system.Config) {
			c.L2.ATP = true
			c.LLC.ATP = true
		}},
		{head: "tempo-only", key: "tempoOnly", label: "abl:tempo-only", mod: func(c *system.Config) { c.TEMPO = true }},
		{head: "full", key: "full", label: "abl:full", mod: applied(system.TEMPO)},
	},
	cell: speedup,
	agg:  geomeanRow,
	notes: []string{
		"ATP needs the T-policies' translation hit rate to trigger; TEMPO needs translations to reach DRAM — the full stack composes them",
	},
}

// AblationWalkers sweeps the number of concurrent page walks: fewer walkers
// serialize STLB misses and magnify the translation bottleneck the paper
// attacks.
//
// Summary keys: base:<n>, gain:<n> for n in {1,2,4}.
func AblationWalkers(r *Runner) *Report {
	t := stats.NewTable("benchmark", "IPC 1w", "IPC 2w", "IPC 4w", "gain 1w", "gain 2w", "gain 4w")
	sum := map[string]float64{}
	wls := r.Scale().pick(ablationRows...)
	for _, w := range wls {
		row := []interface{}{w}
		var ipcs, gains []interface{}
		for _, n := range []int{1, 2, 4} {
			n := n
			base := r.Run(fmt.Sprintf("abl:w%d:base", n), w, func(c *system.Config) {
				c.PageWalkers = n
			})
			enh := r.Run(fmt.Sprintf("abl:w%d:enh", n), w, func(c *system.Config) {
				c.PageWalkers = n
				c.Apply(system.TEMPO)
			})
			ipcs = append(ipcs, base.IPC())
			gain := enh.SpeedupOver(base)
			gains = append(gains, gain)
			sum[fmt.Sprintf("base:%d", n)] += base.IPC()
			sum[fmt.Sprintf("gain:%d", n)] += gain
		}
		row = append(row, ipcs...)
		row = append(row, gains...)
		t.AddRowf(row...)
	}
	for k := range sum {
		sum[k] /= float64(len(wls))
	}
	return &Report{
		ID:    "ablation-walkers",
		Title: "Page-walker concurrency: baseline IPC and enhancement gain at 1/2/4 walkers",
		Table: t,
		Notes: []string{
			"fewer walkers serialize STLB misses: lower baseline IPC, larger absolute headroom for the enhancements",
		},
		Summary: sum,
	}
}

// ablationReplayDelay sweeps the pipeline replay window — the latency ATP's
// prefetch hides. At 0 the replay arrives with the walk and ATP has no
// window; larger windows grow ATP's benefit.
//
// Summary keys: atpGain:<d> for d in {0,15,30,60}.
var ablationReplayDelay = &grid{
	id:    "ablation-replaydelay",
	title: "ATP gain vs the replay re-issue window (cycles)",
	rows:  ablationRows,
	cols:  []column{replayDelay(0), replayDelay(15), replayDelay(30), replayDelay(60)},
	cell:  speedup,
	agg:   aggregate{of: shareMean},
	notes: []string{
		"ATP hides the walk-to-replay window; the gain should grow with the window",
	},
}

// replayDelay is the ablationReplayDelay column of window d.
func replayDelay(d int64) column {
	return paired(fmt.Sprintf("d=%d", d), fmt.Sprintf("atpGain:%d", d),
		fmt.Sprintf("abl:rd%d:base", d), fmt.Sprintf("abl:rd%d:atp", d),
		system.ATP, func(c *system.Config) { c.ReplayIssueDelay = d })
}

// AblationScatter compares the scattered OS frame allocator against
// artificially contiguous frames (perfect DRAM row locality).
//
// Summary keys: scatterIPC, contiguousIPC, rowHitScatter, rowHitContig.
func AblationScatter(r *Runner) *Report {
	t := stats.NewTable("benchmark", "IPC scattered", "IPC contiguous", "row-hit scattered", "row-hit contiguous")
	var sIPC, cIPC, sRH, cRH float64
	wls := r.Scale().pick(ablationRows...)
	for _, w := range wls {
		sc := r.Baseline(w)
		co := r.Run("abl:contig", w, func(c *system.Config) { c.NoScatterFrames = true })
		rh := func(res *system.Result) float64 {
			tot := res.DRAM.RowHits + res.DRAM.RowClosed + res.DRAM.RowMisses
			if tot == 0 {
				return 0
			}
			return float64(res.DRAM.RowHits) / float64(tot)
		}
		t.AddRowf(w, sc.IPC(), co.IPC(), rh(sc), rh(co))
		sIPC += sc.IPC() / float64(len(wls))
		cIPC += co.IPC() / float64(len(wls))
		sRH += rh(sc) / float64(len(wls))
		cRH += rh(co) / float64(len(wls))
	}
	return &Report{
		ID:    "ablation-scatter",
		Title: "OS frame scatter vs contiguous frames (DRAM row locality)",
		Table: t,
		Notes: []string{
			"contiguous frames are an unrealistically friendly OS; scatter is the model used everywhere else",
		},
		Summary: map[string]float64{
			"scatterIPC": sIPC, "contiguousIPC": cIPC,
			"rowHitScatter": sRH, "rowHitContig": cRH,
		},
	}
}

// ablationTHawkeye runs the T-policy ladder with Hawkeye as the LLC
// baseline instead of SHiP — the paper's secondary configuration.
//
// Summary keys: hawkeye, tHawkeye, full (geomean speedups over the SHiP
// baseline).
var ablationTHawkeye = &grid{
	id:    "ablation-t-hawkeye",
	title: "Hawkeye LLC: baseline vs T-Hawkeye vs T-Hawkeye with ATP+TEMPO (normalized to SHiP baseline)",
	cols: []column{
		{head: "hawkeye", key: "hawkeye", label: "abl:hawkeye", mod: func(c *system.Config) { c.LLC.Policy = "hawkeye" }},
		{head: "t-hawkeye", key: "tHawkeye", label: "abl:t-hawkeye", mod: func(c *system.Config) {
			c.L2.Policy = "t-drrip"
			c.LLC.Policy = "t-hawkeye"
		}},
		{head: "t-hawkeye+ATP+TEMPO", key: "full", label: "abl:t-hawkeye-full", mod: func(c *system.Config) {
			c.Apply(system.TEMPO)
			c.LLC.Policy = "t-hawkeye"
		}},
	},
	cell: speedup,
	agg:  geomeanRow,
	notes: []string{
		"the paper's signature fix applies to Hawkeye the same way it applies to SHiP",
	},
}

// AblationHugePages maps all data with 2MB pages: the STLB problem — and
// with it the paper's headroom — largely disappears. This bounds the
// technique's applicability (the future-work scenario).
//
// Summary keys: mpki4K, mpki2M, gain4K, gain2M.
func AblationHugePages(r *Runner) *Report {
	t := stats.NewTable("benchmark", "STLB MPKI 4K", "STLB MPKI 2M", "gain 4K", "gain 2M")
	var m4, m2, g4, g2 float64
	wls := r.Scale().pick(ablationRows...)
	for _, w := range wls {
		b4 := r.Baseline(w)
		e4 := r.Enhanced(w, system.TEMPO)
		b2 := r.Run("abl:huge:base", w, func(c *system.Config) { c.HugePages = true })
		e2 := r.Run("abl:huge:enh", w, func(c *system.Config) {
			c.HugePages = true
			c.Apply(system.TEMPO)
		})
		t.AddRowf(w, b4.STLBMPKI(), b2.STLBMPKI(), e4.SpeedupOver(b4), e2.SpeedupOver(b2))
		m4 += b4.STLBMPKI() / float64(len(wls))
		m2 += b2.STLBMPKI() / float64(len(wls))
		g4 += e4.SpeedupOver(b4) / float64(len(wls))
		g2 += e2.SpeedupOver(b2) / float64(len(wls))
	}
	return &Report{
		ID:    "ablation-hugepages",
		Title: "Transparent huge pages: STLB pressure and enhancement gain under 4KB vs 2MB pages",
		Table: t,
		Notes: []string{
			"with 2MB pages the STLB covers the footprint and the translation-conscious machinery has little left to win — the boundary of the paper's applicability",
		},
		Summary: map[string]float64{
			"mpki4K": m4, "mpki2M": m2, "gain4K": g4, "gain2M": g2,
		},
	}
}
