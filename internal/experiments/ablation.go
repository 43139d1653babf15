package experiments

import (
	"fmt"

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

// ablationWalkers sweeps the number of concurrent page walks: fewer walkers
// serialize STLB misses and magnify the translation bottleneck the paper
// attacks.
//
// Summary keys: base:<n>, gain:<n> for n in {1,2,4}.
var ablationWalkers = &grid{
	id:    "ablation-walkers",
	title: "Page-walker concurrency: baseline IPC and enhancement gain at 1/2/4 walkers",
	rows:  ablationRows,
	cols: []column{
		walkersIPC(1), walkersIPC(2), walkersIPC(4),
		walkersGain(1), walkersGain(2), walkersGain(4),
	},
	cell: speedup,
	agg:  aggregate{of: mean},
	notes: []string{
		"fewer walkers serialize STLB misses: lower baseline IPC, larger absolute headroom for the enhancements",
	},
}

// walkers is the configuration mutation of n concurrent page walks.
func walkers(n int) func(*system.Config) {
	return func(c *system.Config) { c.PageWalkers = n }
}

// walkersIPC is the ablationWalkers column of the baseline IPC at n walkers.
func walkersIPC(n int) column {
	return column{head: fmt.Sprintf("IPC %dw", n), key: fmt.Sprintf("base:%d", n),
		label: fmt.Sprintf("abl:w%d:base", n), mod: walkers(n), cell: ipc}
}

// walkersGain is the ablationWalkers column of the full stack's gain over
// the baseline at n walkers.
func walkersGain(n int) column {
	return paired(fmt.Sprintf("gain %dw", n), fmt.Sprintf("gain:%d", n),
		fmt.Sprintf("abl:w%d:base", n), fmt.Sprintf("abl:w%d:enh", n), system.TEMPO, walkers(n))
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

// ablationScatter compares the scattered OS frame allocator against
// artificially contiguous frames (perfect DRAM row locality).
//
// Summary keys: scatterIPC, contiguousIPC, rowHitScatter, rowHitContig.
var ablationScatter = &grid{
	id:    "ablation-scatter",
	title: "OS frame scatter vs contiguous frames (DRAM row locality)",
	rows:  ablationRows,
	cols: []column{
		{head: "IPC scattered", key: "scatterIPC", label: "baseline", cell: ipc},
		{head: "IPC contiguous", key: "contiguousIPC", label: "abl:contig", mod: contiguous, cell: ipc},
		{head: "row-hit scattered", key: "rowHitScatter", label: "baseline", cell: rowHit},
		{head: "row-hit contiguous", key: "rowHitContig", label: "abl:contig", mod: contiguous, cell: rowHit},
	},
	agg: aggregate{of: shareMean},
	notes: []string{
		"contiguous frames are an unrealistically friendly OS; scatter is the model used everywhere else",
	},
}

// contiguous hands out physically contiguous frames.
func contiguous(c *system.Config) { c.NoScatterFrames = true }

// rowHit is a run's DRAM row-buffer hit rate.
var rowHit = unpaired(func(res *system.Result) float64 { return res.DRAM.RowHitRate() })

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

// ablationHugePages maps all data with 2MB pages: the STLB problem — and
// with it the paper's headroom — largely disappears. This bounds the
// technique's applicability (the future-work scenario).
//
// Summary keys: mpki4K, mpki2M, gain4K, gain2M.
var ablationHugePages = &grid{
	id:    "ablation-hugepages",
	title: "Transparent huge pages: STLB pressure and enhancement gain under 4KB vs 2MB pages",
	rows:  ablationRows,
	cols: []column{
		{head: "STLB MPKI 4K", key: "mpki4K", label: "baseline", cell: stlbMPKI},
		{head: "STLB MPKI 2M", key: "mpki2M", label: "abl:huge:base", mod: hugePages, cell: stlbMPKI},
		enhanced("gain 4K", "gain4K", system.TEMPO),
		paired("gain 2M", "gain2M", "abl:huge:base", "abl:huge:enh", system.TEMPO, hugePages),
	},
	cell: speedup,
	agg:  aggregate{of: shareMean},
	notes: []string{
		"with 2MB pages the STLB covers the footprint and the translation-conscious machinery has little left to win — the boundary of the paper's applicability",
	},
}

// hugePages maps all data with 2MB pages.
func hugePages(c *system.Config) { c.HugePages = true }

// stlbMPKI is a run's STLB misses per kilo-instruction.
var stlbMPKI = unpaired((*system.Result).STLBMPKI)
