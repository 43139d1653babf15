package telemetry

import (
	"atcsim/internal/mem"
	"atcsim/internal/metrics"
)

// RegisterMetrics exposes the Health counters on a metrics registry as
// runner_* counter series. The registry reads the same atomics the engine
// bumps — there is no second copy of the counters, so Health and /metrics
// can never disagree (this view also reaches expvar via
// metrics.PublishExpvar, replacing the old ad-hoc expvar publishing).
func (h *Health) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("runner_runs_total", "Simulations by final outcome.",
		func() float64 { return float64(h.Runs.Load()) }, metrics.L("outcome", "ok"))
	reg.CounterFunc("runner_runs_total", "Simulations by final outcome.",
		func() float64 { return float64(h.Failures.Load()) }, metrics.L("outcome", "failed"))
	reg.CounterFunc("runner_retries_total", "Extra attempts spent on transient failures.",
		func() float64 { return float64(h.Retries.Load()) })
	reg.CounterFunc("runner_panics_total", "Failed runs whose final failure was a captured panic.",
		func() float64 { return float64(h.Panics.Load()) })
	reg.CounterFunc("runner_timeouts_total", "Failed runs abandoned at their per-run deadline.",
		func() float64 { return float64(h.Timeouts.Load()) })
	reg.CounterFunc("runner_canceled_total", "Runs refused or abandoned on sweep cancellation.",
		func() float64 { return float64(h.Canceled.Load()) })
	reg.CounterFunc("runner_disk_hits_total", "Results served from the on-disk cache.",
		func() float64 { return float64(h.DiskHits.Load()) })
	reg.CounterFunc("runner_disk_errors_total", "Disk-cache read/write failures (never fatal).",
		func() float64 { return float64(h.DiskErrors.Load()) })
	reg.CounterFunc("runner_quarantined_total", "Corrupt cache entries moved to .bad siblings.",
		func() float64 { return float64(h.Quarantined.Load()) })
}

// SnapshotGauges is the registry-facing view of a live single simulation:
// sim_* gauges fed from cumulative heartbeat Snapshots on the simulator
// goroutine (Hub.OnTick), so a /metrics scrape mid-run sees
// heartbeat-fresh counters without ever touching the per-request path.
type SnapshotGauges struct {
	gauges []metrics.Gauge // snapshotGauges' series, family by family
}

// gaugeFamily declares one sim_* gauge family: its name, help text, one
// label set per series, and the value of series i in a Snapshot.
type gaugeFamily struct {
	name, help string
	labels     [][]metrics.Label
	value      func(sn *Snapshot, i int) float64
}

// stallKindNames label the sim_stall_cycles gauge; mirrors internal/cpu's
// StallClass order (asserted in sync by the system layer's tests).
var stallKindNames = [NumStallKinds]string{"translation", "replay", "non-replay", "other"}

// snapshotGauges is the live gauge schema, in exposition order.
var snapshotGauges = []gaugeFamily{
	{"sim_instructions", "Measured instructions stepped so far (live run).", unlabelled,
		func(sn *Snapshot, _ int) float64 { return float64(sn.Instructions) }},
	{"sim_cycle", "Max core cycle since measurement start (live run).", unlabelled,
		func(sn *Snapshot, _ int) float64 { return float64(sn.Cycle) }},
	{"sim_cache_demand_misses", "Demand misses so far (live run).", metrics.LabelSets("level", "l1d", "l2", "llc"),
		func(sn *Snapshot, i int) float64 {
			m := [...]*[mem.NumClasses]uint64{&sn.L1DMisses, &sn.L2Misses, &sn.LLCMisses}[i]
			return float64(m[mem.ClassNonReplay] + m[mem.ClassReplay])
		}},
	{"sim_stlb_accesses", "STLB accesses so far (live run).", unlabelled,
		func(sn *Snapshot, _ int) float64 { return float64(sn.STLBAccesses) }},
	{"sim_stlb_misses", "STLB misses so far (live run).", unlabelled,
		func(sn *Snapshot, _ int) float64 { return float64(sn.STLBMisses) }},
	{"sim_leaf_pte_reads", "Leaf PTE reads so far (live run).", unlabelled,
		func(sn *Snapshot, _ int) float64 { return float64(sn.LeafReads) }},
	{"sim_leaf_pte_dram", "Leaf PTE reads serviced by DRAM (live run).", unlabelled,
		func(sn *Snapshot, _ int) float64 { return float64(sn.LeafDRAM) }},
	{"sim_dram_reads", "DRAM reads so far (live run).", unlabelled,
		func(sn *Snapshot, _ int) float64 { return float64(sn.DRAMReads) }},
	{"sim_dram_row_hits", "DRAM row-buffer hits so far (live run).", unlabelled,
		func(sn *Snapshot, _ int) float64 { return float64(sn.DRAMRowHits) }},
	{"sim_stall_cycles", "ROB-head stall cycles by class (live run).", metrics.LabelSets("class", stallKindNames[:]...),
		func(sn *Snapshot, i int) float64 { return float64(sn.Stalls[i]) }},
}

// unlabelled is the label list of a family with a single, label-free series.
var unlabelled = [][]metrics.Label{nil}

// NewSnapshotGauges registers the sim_* gauge set on a registry, family by
// family.
func NewSnapshotGauges(reg *metrics.Registry) *SnapshotGauges {
	g := &SnapshotGauges{}
	for _, f := range snapshotGauges {
		for _, ls := range f.labels {
			g.gauges = append(g.gauges, reg.Gauge(f.name, f.help, ls...))
		}
	}
	return g
}

// Publish folds one cumulative snapshot into the gauges. Nil-safe; called
// from the simulator goroutine at heartbeat cadence.
func (g *SnapshotGauges) Publish(sn Snapshot) {
	if g == nil {
		return
	}
	next := 0
	for _, f := range snapshotGauges {
		for i := range f.labels {
			g.gauges[next].Set(f.value(&sn, i))
			next++
		}
	}
}
