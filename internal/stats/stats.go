// Package stats provides the counters, histograms and table formatting used
// to reproduce the paper's figures: per-class cache access/miss counters
// (MPKI), recall-distance histograms, stall-cycle accounting and service
// distributions.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"atcsim/internal/mem"
)

// ClassCounters tracks per-access-class event counts at one cache level.
type ClassCounters struct {
	Access [mem.NumClasses]uint64
	Miss   [mem.NumClasses]uint64
}

// Record adds one access of class c, counting it as a miss when miss is true.
func (cc *ClassCounters) Record(c mem.Class, miss bool) {
	cc.Access[c]++
	if miss {
		cc.Miss[c]++
	}
}

// TotalAccess returns the access count summed over all classes.
func (cc *ClassCounters) TotalAccess() uint64 {
	var t uint64
	for _, v := range cc.Access {
		t += v
	}
	return t
}

// TotalMiss returns the miss count summed over all classes.
func (cc *ClassCounters) TotalMiss() uint64 {
	var t uint64
	for _, v := range cc.Miss {
		t += v
	}
	return t
}

// MPKI converts an event count into misses-per-kilo-instruction.
func MPKI(events, instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(events) * 1000 / float64(instructions)
}

// Ratio returns num/den, or 0 when den is 0.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Histogram is a bucketed distribution with configurable upper bounds.
// Samples greater than the last bound fall into the overflow bucket.
type Histogram struct {
	bounds []uint64 // inclusive upper bounds, ascending
	counts []uint64 // len(bounds)+1, last is overflow
	total  uint64
	sum    uint64
	max    uint64
}

// NewHistogram creates a histogram with the given ascending inclusive upper
// bucket bounds. It panics when bounds are empty or not strictly ascending,
// since that is a programming error.
func NewHistogram(bounds ...uint64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]uint64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Add records one sample.
func (h *Histogram) Add(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() uint64 { return h.total }

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Max returns the largest sample seen.
func (h *Histogram) Max() uint64 { return h.max }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// FractionAtMost returns the fraction of samples ≤ bound. The bound must be
// one of the histogram's bucket bounds; otherwise the nearest lower bucket
// boundary is used.
func (h *Histogram) FractionAtMost(bound uint64) float64 {
	if h.total == 0 {
		return 0
	}
	var c uint64
	for i, b := range h.bounds {
		if b > bound {
			break
		}
		c += h.counts[i]
	}
	return float64(c) / float64(h.total)
}

// Buckets returns (label, count) pairs for reporting.
func (h *Histogram) Buckets() ([]string, []uint64) {
	labels := make([]string, len(h.counts))
	lo := uint64(0)
	for i, b := range h.bounds {
		labels[i] = fmt.Sprintf("%d-%d", lo, b)
		lo = b + 1
	}
	labels[len(labels)-1] = fmt.Sprintf(">%d", h.bounds[len(h.bounds)-1])
	return labels, append([]uint64(nil), h.counts...)
}

// histogramJSON is the histogram's JSON form. The labelled bucket map and
// derived mean serve external tooling; bounds/counts/sum/max carry the exact
// internal state so a histogram round-trips losslessly (the experiment
// result cache depends on this).
type histogramJSON struct {
	Total   uint64            `json:"total"`
	Mean    float64           `json:"mean"`
	Max     uint64            `json:"max"`
	Sum     uint64            `json:"sum"`
	Bounds  []uint64          `json:"bounds"`
	Counts  []uint64          `json:"counts"`
	Buckets map[string]uint64 `json:"buckets"`
}

// MarshalJSON renders the histogram as buckets plus aggregates, so Results
// serialize cleanly for external tooling, and includes the exact bucket
// bounds and counts so UnmarshalJSON can reconstruct the histogram.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	labels, counts := h.Buckets()
	buckets := make(map[string]uint64, len(labels))
	for i, l := range labels {
		buckets[l] = counts[i]
	}
	return json.Marshal(histogramJSON{
		Total:   h.Total(),
		Mean:    h.Mean(),
		Max:     h.Max(),
		Sum:     h.Sum(),
		Bounds:  append([]uint64(nil), h.bounds...),
		Counts:  counts,
		Buckets: buckets,
	})
}

// UnmarshalJSON reconstructs a histogram serialized by MarshalJSON. It is
// the exact inverse: bounds, per-bucket counts, totals, sum and max are all
// restored bit-for-bit.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var v histogramJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	if len(v.Bounds) == 0 {
		return fmt.Errorf("stats: histogram JSON has no bounds")
	}
	if len(v.Counts) != len(v.Bounds)+1 {
		return fmt.Errorf("stats: histogram JSON has %d counts for %d bounds",
			len(v.Counts), len(v.Bounds))
	}
	h.bounds = append([]uint64(nil), v.Bounds...)
	h.counts = append([]uint64(nil), v.Counts...)
	h.total = v.Total
	h.sum = v.Sum
	h.max = v.Max
	return nil
}

// ServiceDist counts, per hierarchy level, how many requests of interest were
// serviced there (Fig. 3).
type ServiceDist struct {
	Count [mem.NumLevels]uint64
}

// Record notes a request serviced at level l.
func (s *ServiceDist) Record(l mem.Level) { s.Count[l]++ }

// Total returns the total number of recorded requests.
func (s *ServiceDist) Total() uint64 {
	var t uint64
	for _, v := range s.Count {
		t += v
	}
	return t
}

// Fraction returns the share of requests serviced at level l.
func (s *ServiceDist) Fraction(l mem.Level) float64 {
	return Ratio(s.Count[l], s.Total())
}

// Reset zeroes the distribution.
func (s *ServiceDist) Reset() { *s = ServiceDist{} }

// Table is a minimal text-table builder for experiment reports.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped and short
// rows are padded.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row formatting each value: strings verbatim, floats with
// %.3f, integers with %d.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			if math.Abs(v) >= 1000 {
				row = append(row, fmt.Sprintf("%.1f", v))
			} else {
				row = append(row, fmt.Sprintf("%.3f", v))
			}
		case float32:
			row = append(row, fmt.Sprintf("%.3f", v))
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.AddRow(row...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish comma-separated values (cells are
// quoted when they contain commas or quotes), for plotting pipelines.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// GeoMean returns the geometric mean of xs, ignoring non-positive values.
// It is the conventional aggregate for normalized speedups.
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// HarmonicMean returns the harmonic mean of xs (the paper's SMT aggregate).
func HarmonicMean(xs []float64) float64 {
	var inv float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			inv += 1 / x
			n++
		}
	}
	if n == 0 || inv == 0 {
		return 0
	}
	return float64(n) / inv
}
