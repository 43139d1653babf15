package experiments

import (
	"slices"
	"strings"

	"atcsim/internal/experiments/runner"
	"atcsim/internal/stats"
	"atcsim/internal/system"
	"atcsim/internal/trace"
)

// smtMixes are the 2-thread combinations the paper highlights, covering all
// STLB-MPKI category pairs.
var smtMixes = [][]string{
	{"xalancbmk", "xalancbmk"}, // Low-Low
	{"canneal", "xalancbmk"},   // Medium-Low
	{"mcf", "mis"},             // Medium-Medium
	{"radii", "bf"},            // High-High
	{"pr", "cc"},               // High-High
	{"tc", "pr"},               // Medium-High
}

// runMix simulates a mix under the given enhancement level: a KindSMT mix
// runs two hardware threads on one core, a KindMulti mix one workload per
// core. Like single-core runs, mix results are keyed canonically (the run
// kind keeps them distinct from a single-core run of the same
// configuration) and cached.
func (r *Runner) runMix(kind string, mix []string, e system.Enhancement) *system.Result {
	cfg := r.baseConfig()
	if kind == runner.KindMulti {
		// Multi-core runs are len(mix)× the work; keep wall time in check.
		cfg.Instructions /= 2
		cfg.Warmup /= 2
	}
	cfg.Apply(e)
	res, _, err := r.cached(r.ctx, r.runTimeout, kind+":"+e.String(), strings.Join(mix, "-"), false,
		kind, mix, []int64{r.sc.Seed}, cfg,
		func() (*system.Result, error) {
			traces := make([]*trace.Trace, len(mix))
			for i, w := range mix {
				t, err := r.TryTraceSeeded(w, r.sc.Seed)
				if err != nil {
					return nil, err
				}
				traces[i] = t
			}
			if kind == runner.KindSMT {
				return system.RunSMT(cfg, traces[0], traces[1])
			}
			return system.RunMulti(cfg, traces)
		})
	return must(res, err)
}

// mixSpeedups is an experiment over workload mixes: per mix, the harmonic
// speedup of the full enhancement stack over the baseline, then their mean.
type mixSpeedups struct {
	id, title string
	kind      string // runner.KindSMT or runner.KindMulti
	head      string // header of the mix column
	// mixes are the candidates (see Scale.mixes); fallback builds the mixes
	// from the scale's workloads when none of them is at the scale.
	mixes    [][]string
	fallback func(workloads []string) [][]string
	// max also summarizes the largest speedup under "max".
	max   bool
	notes []string
}

// entry registers the experiment in the catalog.
func (x *mixSpeedups) entry() catalogEntry { return catalogEntry{x.id, x.run} }

// run simulates every mix, concurrently, and tabulates them in mix order.
func (x *mixSpeedups) run(r *Runner) *Report {
	mixes := r.Scale().mixes(x.mixes)
	if len(mixes) == 0 {
		mixes = x.fallback(r.Scale().workloads())
	}
	sp := make([]float64, len(mixes))
	forEachIndex(len(mixes), func(i int) {
		base := r.runMix(x.kind, mixes[i], system.Baseline)
		enh := r.runMix(x.kind, mixes[i], system.TEMPO)
		sp[i] = enh.HarmonicSpeedupOver(base)
	})
	t := stats.NewTable(x.head, "harmonic speedup")
	for i, mix := range mixes {
		t.AddRowf(strings.Join(mix, "-"), sp[i])
	}
	t.AddRowf("mean", mean(sp))
	sum := map[string]float64{"mean": mean(sp)}
	if x.max {
		sum["max"] = largest(sp)
	}
	return &Report{ID: x.id, Title: x.title, Table: t, Notes: slices.Clone(x.notes), Summary: sum}
}

// fig17 evaluates the full enhancement stack on a 2-way SMT core using the
// paper's harmonic-speedup metric.
//
// Summary keys: mean (average harmonic speedup), max.
var fig17 = &mixSpeedups{
	id:    "fig17",
	title: "2-way SMT harmonic speedup of the full enhancements",
	kind:  runner.KindSMT,
	head:  "mix (T0-T1)",
	mixes: smtMixes,
	// Quick scales may not contain any canonical pair; fall back to
	// self-mixes of whatever is available.
	fallback: func(ws []string) [][]string {
		var mixes [][]string
		for _, w := range ws {
			mixes = append(mixes, []string{w, w})
		}
		return mixes
	},
	max: true,
	notes: []string{
		"paper: +6.3% average, up to +12.6% (pr-cc); Low/Medium-containing mixes gain less",
	},
}

// multiMixes are the multi-programmed mixes (one benchmark name per core).
// The last one is the paper's 8-core configuration (two DRAM channels).
var multiMixes = [][]string{
	{"pr", "cc", "radii", "bf"},                                // homogeneous High
	{"tc", "canneal", "mis", "mcf"},                            // homogeneous Medium
	{"pr", "mcf", "xalancbmk", "tc"},                           // heterogeneous
	{"cc", "canneal", "xalancbmk", "bf"},                       // heterogeneous
	{"pr", "cc", "radii", "bf", "tc", "canneal", "mis", "mcf"}, // 8-core
}

// multiCore evaluates the enhancements on multi-programmed mixes sharing an
// LLC (2MB/core) and one DRAM channel.
//
// Summary keys: mean (average harmonic speedup over mixes).
var multiCore = &mixSpeedups{
	id:    "multicore",
	title: "Multi-programmed mixes: harmonic speedup of the full enhancements",
	kind:  runner.KindMulti,
	head:  "mix",
	mixes: multiMixes,
	// Quick scale: one mix over whatever benchmarks exist.
	fallback: func(ws []string) [][]string { return [][]string{ws} },
	notes: []string{
		"paper (8-core, 25 mixes): >4% average improvement",
	},
}
