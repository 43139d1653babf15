package experiments

import (
	"atcsim/internal/stats"
)

// Robustness measures how sensitive the headline speedup (full enhancement
// stack vs baseline) is to the synthetic trace instance: every benchmark is
// regenerated with several seeds and the per-seed speedups are compared.
// A reproduction whose result flips sign across seeds would be noise; this
// experiment shows it does not.
//
// Summary keys: mean (grand mean speedup), worstMin (lowest per-seed
// speedup across all benchmarks).
func Robustness(r *Runner) *Report {
	seeds := []int64{r.Scale().Seed, 7, 13}

	names := r.Scale().workloads()
	speedups := make([][]float64, len(names))
	forEachIndex(len(names), func(i int) {
		speedups[i] = r.SeededSpeedupsAt(names[i], seeds)
	})

	t := stats.NewTable("benchmark", "mean", "min", "max", "seeds")
	var all []float64
	worstMin := 0.0
	first := true
	for i, w := range names {
		sp := speedups[i]
		mn, mx, sum := sp[0], sp[0], 0.0
		for _, s := range sp {
			sum += s
			if s < mn {
				mn = s
			}
			if s > mx {
				mx = s
			}
		}
		t.AddRowf(w, sum/float64(len(sp)), mn, mx, len(seeds))
		all = append(all, sp...)
		if first || mn < worstMin {
			worstMin = mn
			first = false
		}
	}
	return &Report{
		ID:    "robustness",
		Title: "Seed robustness: full-stack speedup across independently synthesized traces",
		Table: t,
		Notes: []string{
			"each benchmark is regenerated with multiple seeds; the speedup band shows how much of the headline is trace noise",
		},
		Summary: map[string]float64{
			"mean":     mean(all),
			"worstMin": worstMin,
		},
	}
}
