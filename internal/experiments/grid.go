package experiments

import (
	"slices"

	"atcsim/internal/mem"
	"atcsim/internal/stats"
	"atcsim/internal/system"
)

// grid is an experiment declared as data. Rows are workloads, columns are
// named machine configurations, and each cell is one number read off one
// single-core run by the column's metric; below the rows sits an optional
// aggregate row. Most of the paper's measured figures and every ablation
// have this shape, and run executes every one of them the same way. Two
// other shapes have their own small spec types: recall-distance tables
// (recallTable) and speedups over workload mixes (mixSpeedups).
//
// The experiments left as functions do not fit a grid:
//   - fig1 prints its max columns as integers, and its stall totals are
//     not columns;
//   - fig16's means skip rows whose base stall is zero;
//   - table1 and table2 have text cells;
//   - queues has integer counter cells;
//   - mechanisms has two label columns;
//   - robustness needs a seed axis.
type grid struct {
	id, title string
	// rows, when non-empty, names the wanted workloads (see Scale.pick);
	// empty means every workload of the scale.
	rows []string
	cols []column
	// cell is the metric of every column that has none of its own.
	cell cellMetric
	agg  aggregate
	// derive, when non-nil, adds summary keys computed from the whole grid.
	// col(key) is the cells, in row order, of the column with that summary
	// key; sum already holds every column's key.
	derive func(col func(key string) []float64, sum map[string]float64)
	notes  []string
}

// column is one named machine configuration of a grid.
type column struct {
	head string // table header
	// key is the summary key of the column's aggregate; "" leaves the
	// column out of the summary.
	key   string
	label string // run label (progress output and FAILED markers)
	mod   func(*system.Config)
	// cell, when set, is the column's own metric in place of the grid's.
	cell cellMetric
	// base, when non-nil, is the column's own baseline configuration, run
	// under baseLabel just before the column's run. A paired cell compares
	// against it instead of the row's plain baseline.
	baseLabel string
	base      func(*system.Config)
	// of, when non-nil, derives the cell from the row's earlier cells; the
	// column runs nothing.
	of func(row []float64) float64
	// noAgg leaves the column's aggregate cell blank.
	noAgg bool
}

// cellMetric turns a column's run into a table cell.
type cellMetric struct {
	// paired cells compare each run against a baseline run (the column's
	// own, else the row's plain baseline); unpaired cells get a nil base.
	paired bool
	value  func(res, base *system.Result) float64
}

// speedup is a run's performance normalized to its baseline.
var speedup = cellMetric{paired: true, value: func(res, base *system.Result) float64 {
	return res.SpeedupOver(base)
}}

// unpaired is the metric that reads one number off a run alone.
func unpaired(of func(*system.Result) float64) cellMetric {
	return cellMetric{value: func(res, _ *system.Result) float64 { return of(res) }}
}

// llcMPKI is a run's LLC misses of one request class per kilo-instruction.
func llcMPKI(class mem.Class) cellMetric {
	return unpaired(func(res *system.Result) float64 { return res.LLCMPKI(class) })
}

// ipc is a run's instructions per cycle.
var ipc = unpaired((*system.Result).IPC)

// aggregate folds a column's cells, in row order, into one value.
type aggregate struct {
	row string // label of the aggregate row; "" adds no row
	of  func([]float64) float64
}

var (
	geomeanRow = aggregate{row: "geomean", of: stats.GeoMean}
	meanRow    = aggregate{row: "mean", of: mean}
)

// shareMean is the arithmetic mean accumulated as Σ x/n in row order. It
// differs from mean in the last bits, which the summary's rounding can
// show, so experiments that always summed shares keep doing so.
func shareMean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x / float64(len(xs))
	}
	return s
}

// entry registers the grid in the experiment catalog.
func (g *grid) entry() catalogEntry { return catalogEntry{g.id, g.run} }

// run executes the grid through r.Run, row by row and in column order. A
// paired column's own baseline runs just before the column; the row's plain
// baseline runs before the first column that compares against it.
func (g *grid) run(r *Runner) *Report {
	header := []string{"benchmark"}
	for _, c := range g.cols {
		header = append(header, c.head)
	}
	t := stats.NewTable(header...)
	cells := make([][]float64, len(g.cols))
	for _, w := range r.Scale().pick(g.rows...) {
		var plain *system.Result
		row := make([]float64, len(g.cols))
		for i, c := range g.cols {
			m := c.cell
			if m.value == nil {
				m = g.cell
			}
			if c.of != nil {
				row[i] = c.of(row[:i])
			} else {
				var base *system.Result
				switch {
				case !m.paired:
				case c.base != nil:
					base = r.Run(c.baseLabel, w, c.base)
				default:
					if plain == nil {
						plain = r.Baseline(w)
					}
					base = plain
				}
				row[i] = m.value(r.Run(c.label, w, c.mod), base)
			}
			cells[i] = append(cells[i], row[i])
		}
		line := []interface{}{w}
		for _, v := range row {
			line = append(line, v)
		}
		t.AddRowf(line...)
	}
	aggRow := []interface{}{g.agg.row}
	sum := map[string]float64{}
	for i, c := range g.cols {
		if c.noAgg {
			aggRow = append(aggRow, "")
			continue
		}
		v := g.agg.of(cells[i])
		aggRow = append(aggRow, v)
		if c.key != "" {
			sum[c.key] = v
		}
	}
	if g.agg.row != "" {
		t.AddRowf(aggRow...)
	}
	if g.derive != nil {
		g.derive(func(key string) []float64 {
			i := slices.IndexFunc(g.cols, func(c column) bool { return c.key == key })
			if i < 0 {
				panic("experiments: " + g.id + " has no column keyed " + key)
			}
			return cells[i]
		}, sum)
	}
	return &Report{ID: g.id, Title: g.title, Table: t, Notes: slices.Clone(g.notes), Summary: sum}
}

// applied is the configuration mutation of one enhancement level.
func applied(e system.Enhancement) func(*system.Config) {
	return func(c *system.Config) { c.Apply(e) }
}

// enhanced is the column of one cumulative enhancement level, labelled as
// Runner.Enhanced labels its runs so the two share progress output.
func enhanced(head, key string, e system.Enhancement) column {
	return column{head: head, key: key, label: "enh:" + e.String(), mod: applied(e)}
}

// paired is a column measuring enhancement level e on top of mod: its own
// baseline runs mod alone under baseLabel, its run adds e under label.
func paired(head, key, baseLabel, label string, e system.Enhancement, mod func(*system.Config)) column {
	return column{head: head, key: key, label: label, baseLabel: baseLabel, base: mod,
		mod: func(c *system.Config) {
			mod(c)
			c.Apply(e)
		}}
}
