package experiments

import (
	"atcsim/internal/cache"
	"atcsim/internal/stats"
	"atcsim/internal/system"
)

// Queues contrasts the analytic and queued timing engines on the full
// +TEMPO stack: per benchmark, the IPC under each engine, the queued/analytic
// ratio (bounded deques and MSHR gating can only slow a run down), and the
// backpressure the queued engine observed — read-queue-full stall cycles,
// write-forwards, prefetch merges and MSHR-full stalls summed over all cache
// levels. It is the queue-contention profile the analytic model cannot see.
//
// Summary keys: "ipc-ratio" (geomean queued/analytic IPC) and total
// backpressure counters "rq-full", "wq-forward", "pq-merged", "mshr-full".
func Queues(r *Runner) *Report {
	t := stats.NewTable("benchmark", "analytic-IPC", "queued-IPC", "ratio",
		"rq-full", "wq-forward", "pq-merged", "mshr-full")
	var ratios []float64
	var totals cache.QueueStats
	for _, w := range r.Scale().workloads() {
		analytic := r.Run("queues:analytic", w, func(c *system.Config) {
			c.Apply(system.TEMPO)
			c.Timing = "" // share run keys with the rest of the suite
		})
		queued := r.Run("queues:queued", w, func(c *system.Config) {
			c.Apply(system.TEMPO)
			c.Timing = system.TimingQueued
		})
		var q cache.QueueStats
		for i := range queued.Queues {
			q.Add(queued.Queues[i].Q)
		}
		ratio := 0.0
		if analytic.IPC() > 0 {
			ratio = queued.IPC() / analytic.IPC()
		}
		ratios = append(ratios, ratio)
		totals.Add(q)
		t.AddRowf(w, analytic.IPC(), queued.IPC(), ratio,
			q.RQFull, q.WQForward, q.PQMerged, q.MSHRFull)
	}
	sum := map[string]float64{
		"ipc-ratio":  stats.GeoMean(ratios),
		"rq-full":    float64(totals.RQFull),
		"wq-forward": float64(totals.WQForward),
		"pq-merged":  float64(totals.PQMerged),
		"mshr-full":  float64(totals.MSHRFull),
	}
	t.AddRowf("geomean", "", "", stats.GeoMean(ratios), "", "", "", "")
	return &Report{
		ID:    "queues",
		Title: "Queued vs analytic timing: IPC and queue backpressure under the full +TEMPO stack",
		Table: t,
		Notes: []string{
			"queued timing bounds per-level RQ/WQ/PQ/VAPQ deques and MSHR occupancy; the analytic model admits unbounded parallelism",
			"rq-full and mshr-full count stall cycles; wq-forward and pq-merged count coalesced requests",
		},
		Summary: sum,
	}
}
