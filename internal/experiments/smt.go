package experiments

import (
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

// runSMT simulates a 2-thread mix under the given enhancement level. Like
// single-core runs, SMT results are keyed canonically (the run kind keeps
// them distinct from a single-core run of the same configuration) and cached.
func (r *Runner) runSMT(mix []string, e system.Enhancement) *system.Result {
	cfg := r.baseConfig()
	cfg.Apply(e)
	res, _, err := r.cached(r.ctx, r.runTimeout, "smt:"+e.String(), mix[0]+"-"+mix[1],
		runner.KindSMT, mix, []int64{r.sc.Seed}, cfg,
		func() (*system.Result, error) {
			t0, err := r.TryTraceSeeded(mix[0], r.sc.Seed)
			if err != nil {
				return nil, err
			}
			t1, err := r.TryTraceSeeded(mix[1], r.sc.Seed)
			if err != nil {
				return nil, err
			}
			return system.RunSMT(cfg, t0, t1)
		})
	return must(res, err)
}

// runMulti simulates a multi-programmed mix (one benchmark per core) under
// the given enhancement level, with cached results like every other run.
func (r *Runner) runMulti(mix []string, e system.Enhancement) *system.Result {
	cfg := r.baseConfig()
	// Multi-core runs are len(mix)× the work; keep wall time in check.
	cfg.Instructions /= 2
	cfg.Warmup /= 2
	cfg.Apply(e)
	res, _, err := r.cached(r.ctx, r.runTimeout, "multi:"+e.String(), strings.Join(mix, "-"),
		runner.KindMulti, mix, []int64{r.sc.Seed}, cfg,
		func() (*system.Result, error) {
			traces := make([]*trace.Trace, len(mix))
			for i, w := range mix {
				t, err := r.TryTraceSeeded(w, r.sc.Seed)
				if err != nil {
					return nil, err
				}
				traces[i] = t
			}
			return system.RunMulti(cfg, traces)
		})
	return must(res, err)
}

// Fig17 evaluates the full enhancement stack on a 2-way SMT core using the
// paper's harmonic-speedup metric.
//
// Summary keys: mean (average harmonic speedup), max.
func Fig17(r *Runner) *Report {
	mixes := r.Scale().mixes(smtMixes)
	if len(mixes) == 0 {
		// Quick scales may not contain any canonical pair; fall back to
		// self-mixes of whatever is available.
		for _, w := range r.Scale().workloads() {
			mixes = append(mixes, []string{w, w})
		}
	}
	sp := make([]float64, len(mixes))
	forEachIndex(len(mixes), func(i int) {
		base := r.runSMT(mixes[i], system.Baseline)
		enh := r.runSMT(mixes[i], system.TEMPO)
		sp[i] = enh.HarmonicSpeedupOver(base)
	})
	t := stats.NewTable("mix (T0-T1)", "harmonic speedup")
	maxSp := 0.0
	for i, mix := range mixes {
		t.AddRowf(mix[0]+"-"+mix[1], sp[i])
		if sp[i] > maxSp {
			maxSp = sp[i]
		}
	}
	t.AddRowf("mean", mean(sp))
	return &Report{
		ID:    "fig17",
		Title: "2-way SMT harmonic speedup of the full enhancements",
		Table: t,
		Notes: []string{
			"paper: +6.3% average, up to +12.6% (pr-cc); Low/Medium-containing mixes gain less",
		},
		Summary: map[string]float64{"mean": mean(sp), "max": maxSp},
	}
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

// MultiCore evaluates the enhancements on multi-programmed mixes sharing an
// LLC (2MB/core) and one DRAM channel.
//
// Summary keys: mean (average harmonic speedup over mixes).
func MultiCore(r *Runner) *Report {
	mixes := r.Scale().mixes(multiMixes)
	if len(mixes) == 0 {
		// Quick scale: one mix over whatever benchmarks exist.
		mixes = [][]string{r.Scale().workloads()}
	}
	sp := make([]float64, len(mixes))
	forEachIndex(len(mixes), func(i int) {
		base := r.runMulti(mixes[i], system.Baseline)
		enh := r.runMulti(mixes[i], system.TEMPO)
		sp[i] = enh.HarmonicSpeedupOver(base)
	})
	t := stats.NewTable("mix", "harmonic speedup")
	for i, mix := range mixes {
		t.AddRowf(strings.Join(mix, "-"), sp[i])
	}
	t.AddRowf("mean", mean(sp))
	return &Report{
		ID:    "multicore",
		Title: "Multi-programmed mixes: harmonic speedup of the full enhancements",
		Table: t,
		Notes: []string{
			"paper (8-core, 25 mixes): >4% average improvement",
		},
		Summary: map[string]float64{"mean": mean(sp)},
	}
}
