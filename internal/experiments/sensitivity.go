package experiments

import (
	"fmt"

	"atcsim/internal/stats"
	"atcsim/internal/system"
)

// sensitivityRows are the benchmarks the paper's sensitivity figures plot
// (xalancbmk, canneal, mcf plus one High).
var sensitivityRows = []string{"xalancbmk", "canneal", "mcf", "pr"}

// sizeSweep is a size-sensitivity grid: for every parameter value, the
// speedup of the full enhancement stack over the same-size baseline, per
// benchmark, and its geomean.
func sizeSweep(id, title, unit string, values []int, mod func(*system.Config, int), paperNote string) *grid {
	cols := make([]column, len(values))
	for i, v := range values {
		head := fmt.Sprintf("%d%s", v, unit)
		cols[i] = paired(head, head, fmt.Sprintf("%s:base:%d", id, v), fmt.Sprintf("%s:enh:%d", id, v),
			system.TEMPO, func(c *system.Config) { mod(c, v) })
	}
	return &grid{id: id, title: title, rows: sensitivityRows, cols: cols,
		cell: speedup, agg: geomeanRow, notes: []string{paperNote}}
}

// fig18 reports the recall distance of translations at the STLB itself.
//
// Summary keys: beyond50 (fraction of STLB entries recalled after more than
// 50 unique set accesses — the paper's "dead TLB entries").
var fig18 = &recallTable{
	id:    "fig18",
	title: "Recall distance of translations at the STLB",
	first: "benchmark",
	series: []recallSeries{
		{of: func(res *system.Result) stats.Recall { return res.Cores[0].STLBRecall }, key: "beyond50", beyond: true},
	},
	notes: []string{
		"paper: >40% of STLB entries have recall distance beyond 50 — bypassing dead entries cannot cover them",
	},
}

// fig19 sweeps the STLB size (512–4096 entries).
var fig19 = sizeSweep("fig19",
	"STLB sensitivity: speedup of the full enhancements at each STLB size",
	"e", []int{512, 1024, 2048, 4096},
	func(c *system.Config, v int) { c.STLB.Entries = v },
	"paper: gains persist across STLB sizes and shrink as the STLB grows (lower STLB MPKI)")

// fig20 sweeps the L2C size (256KB–1MB).
var fig20 = sizeSweep("fig20",
	"L2C sensitivity: speedup of the full enhancements at each L2 size",
	"KB", []int{256, 512, 768, 1024},
	func(c *system.Config, v int) {
		c.L2.SizeBytes = v << 10
		if v == 768 {
			c.L2.Ways = 12 // keep a power-of-two set count
		}
		if v == 1024 {
			c.L2.Latency = 12 // larger L2 is slower (paper notes this)
		}
	},
	"paper: gains similar at 768KB, slightly lower at 1MB; xalancbmk keeps gaining")

// fig21 sweeps the LLC size (1MB–8MB).
var fig21 = sizeSweep("fig21",
	"LLC sensitivity: speedup of the full enhancements at each LLC size",
	"MB", []int{1, 2, 4, 8},
	func(c *system.Config, v int) { c.LLC.SizeBytes = v << 20 },
	"paper: 6.3% at 1MB declining to 4.2% at 8MB")
