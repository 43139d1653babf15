package system

import (
	"strconv"
	"strings"

	"atcsim/internal/cache"
	"atcsim/internal/cpu"
	"atcsim/internal/mem"
	"atcsim/internal/metrics"
)

// MetricsSink maps completed simulation Results onto a metrics registry.
//
// The simulator's components keep their own plain uint64 Stats structs on
// the hot path; the sink never touches per-access code. Instead the
// experiment runner calls Record once per *completed* run, folding the
// run's totals into shared counters with one atomic add per series. Every
// family is declared once, as a row of sinkFamilies, and registers eagerly
// at construction, so a /metrics scrape sees the full series set (at zero)
// before the first run completes.
type MetricsSink struct {
	counters []metrics.Counter // sinkFamilies' series, family by family
}

// sinkFamily declares one counter family: its name, help text, one label
// set per series, and a fill that adds a Result's values into out, which
// is aligned with labels.
type sinkFamily struct {
	name, help string
	labels     [][]metrics.Label
	fill       func(r *Result, out []uint64)
}

// unlabelled is the label list of a family with a single, label-free series.
var unlabelled = [][]metrics.Label{nil}

// enumLabels labels one series per value of an enum below n, by its
// lowercased name.
func enumLabels[E interface {
	~uint8
	String() string
}](key string, n E) [][]metrics.Label {
	var vals []string
	for e := E(0); e < n; e++ {
		vals = append(vals, strings.ToLower(e.String()))
	}
	return metrics.LabelSets(key, vals...)
}

// ptLevels labels page-table levels lo..mem.PTLevels.
func ptLevels(lo int) [][]metrics.Label {
	var vals []string
	for l := lo; l <= mem.PTLevels; l++ {
		vals = append(vals, strconv.Itoa(l))
	}
	return metrics.LabelSets("level", vals...)
}

// cacheLevels label the three cache levels the sink aggregates over
// (instances of the same level are summed); queued levels index it by
// mem.Level. cacheClasses splits each level by access class; tlbKinds
// names the MMU's TLB structures.
var (
	cacheLevels  = metrics.LabelSets("level", "l1d", "l2", "llc")
	tlbKinds     = metrics.LabelSets("kind", "dtlb", "itlb", "stlb")
	cacheClasses = func() (out [][]metrics.Label) {
		for _, lv := range cacheLevels {
			for _, cl := range enumLabels("class", mem.NumClasses) {
				out = append(out, append(cl, lv...))
			}
		}
		return out
	}()
)

// scalar declares a single-series family read straight off the Result.
func scalar(name, help string, v func(r *Result) uint64) sinkFamily {
	return sinkFamily{name, help, unlabelled, func(r *Result, out []uint64) { out[0] += v(r) }}
}

// perCore declares a family summed over every core's CoreResult.
func perCore(name, help string, labels [][]metrics.Label, fill func(c *CoreResult, out []uint64)) sinkFamily {
	return sinkFamily{name, help, labels, func(r *Result, out []uint64) {
		for i := range r.Cores {
			fill(&r.Cores[i], out)
		}
	}}
}

// coreScalar is a single-series perCore family.
func coreScalar(name, help string, v func(c *CoreResult) uint64) sinkFamily {
	return perCore(name, help, unlabelled, func(c *CoreResult, out []uint64) { out[0] += v(c) })
}

// perLevel declares a family labelled by cache level, summed over every
// instance of the level.
func perLevel(name, help string, v func(st *cache.Stats) uint64) sinkFamily {
	return sinkFamily{name, help, cacheLevels, func(r *Result, out []uint64) {
		forLevels(r, func(li int, st *cache.Stats) { out[li] += v(st) })
	}}
}

// perLevelClass declares a family labelled by cache level and access class.
func perLevelClass(name, help string, v func(st *cache.Stats) *[mem.NumClasses]uint64) sinkFamily {
	return sinkFamily{name, help, cacheClasses, func(r *Result, out []uint64) {
		forLevels(r, func(li int, st *cache.Stats) {
			for c, n := range v(st) {
				out[li*int(mem.NumClasses)+c] += n
			}
		})
	}}
}

// forLevels visits every cache instance with its cacheLevels index.
func forLevels(r *Result, visit func(li int, st *cache.Stats)) {
	for i := range r.L1D {
		visit(0, &r.L1D[i])
	}
	for i := range r.L2 {
		visit(1, &r.L2[i])
	}
	visit(2, &r.LLC)
}

// perQueue declares a queued-timing deque family labelled by cache level.
// The L1I wrapper shares mem.LvlL1D and so folds into the l1d series.
func perQueue(name, help string, v func(q *cache.QueueStats) uint64) sinkFamily {
	return sinkFamily{name, help, cacheLevels, func(r *Result, out []uint64) {
		for i := range r.Queues {
			if li := int(r.Queues[i].Level); li < len(out) {
				out[li] += v(&r.Queues[i].Q)
			}
		}
	}}
}

// barrier declares a family read off the barrier engine's stats (zero for
// single-core and SMT runs).
func barrier(name, help string, v func(p *ParallelStats) uint64) sinkFamily {
	return scalar(name, help, func(r *Result) uint64 {
		if r.Parallel == nil {
			return 0
		}
		return v(r.Parallel)
	})
}

// sinkFamilies is the sink's schema: every family it publishes, in
// exposition order.
var sinkFamilies = []sinkFamily{
	scalar("sim_results_recorded_total", "Completed simulations folded into these counters.",
		func(*Result) uint64 { return 1 }),

	// Cache hierarchy.
	perLevelClass("cache_accesses_total", "Cache lookups by level and access class.",
		func(st *cache.Stats) *[mem.NumClasses]uint64 { return &st.Access }),
	perLevelClass("cache_misses_total", "Cache misses by level and access class.",
		func(st *cache.Stats) *[mem.NumClasses]uint64 { return &st.Miss }),
	perLevel("cache_evictions_total", "Blocks evicted.",
		func(st *cache.Stats) uint64 { return sum(st.Evictions[:]) }),
	perLevel("cache_dead_evictions_total", "Blocks evicted without reuse after fill.",
		func(st *cache.Stats) uint64 { return sum(st.DeadEvictions[:]) }),
	perLevel("cache_writebacks_total", "Dirty blocks written back.",
		func(st *cache.Stats) uint64 { return st.Writebacks }),
	perLevel("cache_mshr_merges_total", "Accesses merged with an in-flight miss.",
		func(st *cache.Stats) uint64 { return st.Merges }),
	perLevel("cache_bypasses_total", "Fills skipped by a dead-block-bypassing policy.",
		func(st *cache.Stats) uint64 { return st.Bypasses }),
	perLevel("prefetch_issued_total", "Prefetches that allocated a fill.",
		func(st *cache.Stats) uint64 { return st.PrefIssued }),
	perLevel("prefetch_useful_total", "Demand hits on prefetched blocks.",
		func(st *cache.Stats) uint64 { return st.PrefUseful }),
	perLevel("prefetch_late_total", "Demand accesses merged with an in-flight prefetch.",
		func(st *cache.Stats) uint64 { return st.PrefLate }),
	perLevel("prefetch_dropped_total", "Prefetches dropped on saturated MSHRs.",
		func(st *cache.Stats) uint64 { return st.PrefDropped }),

	// Queued-timing deque backpressure (zero under analytic timing).
	perQueue("cache_queue_rq_full_total", "Cycles a demand read stalled on a full read queue (queued timing).",
		func(q *cache.QueueStats) uint64 { return q.RQFull }),
	perQueue("cache_queue_rq_merged_total", "Demand reads that matched an in-flight read-queue entry (queued timing).",
		func(q *cache.QueueStats) uint64 { return q.RQMerged }),
	perQueue("cache_queue_wq_full_total", "Cycles a writeback stalled on a full write queue (queued timing).",
		func(q *cache.QueueStats) uint64 { return q.WQFull }),
	perQueue("cache_queue_wq_forward_total", "Demand reads serviced by forwarding from a queued writeback (queued timing).",
		func(q *cache.QueueStats) uint64 { return q.WQForward }),
	perQueue("cache_queue_pq_full_total", "Prefetches dropped on a full prefetch queue (queued timing).",
		func(q *cache.QueueStats) uint64 { return q.PQFull }),
	perQueue("cache_queue_pq_merged_total", "Prefetches merged with an already-queued prefetch (queued timing).",
		func(q *cache.QueueStats) uint64 { return q.PQMerged }),
	perQueue("cache_queue_vapq_full_total", "Distant prefetches dropped on a full virtual-address prefetch queue (queued timing).",
		func(q *cache.QueueStats) uint64 { return q.VAPQFull }),
	perQueue("cache_queue_mshr_full_total", "Cycles the read-queue head stalled on saturated MSHRs (queued timing).",
		func(q *cache.QueueStats) uint64 { return q.MSHRFull }),

	// Translation: first-level TLBs + STLB, paging-structure caches, walker.
	perCore("tlb_accesses_total", "TLB lookups by structure.", tlbKinds,
		func(c *CoreResult, out []uint64) {
			out[0] += c.MMU.DTLBAccesses
			out[1] += c.MMU.ITLBAccesses
			out[2] += c.MMU.STLBAccesses
		}),
	perCore("tlb_misses_total", "TLB misses by structure.", tlbKinds,
		func(c *CoreResult, out []uint64) {
			out[0] += c.MMU.DTLBMisses
			out[1] += c.MMU.ITLBMisses
			out[2] += c.MMU.STLBMisses
		}),
	perCore("tlb_evictions_total", "STLB entries evicted.", metrics.LabelSets("kind", "stlb"),
		func(c *CoreResult, out []uint64) { out[0] += c.STLB.Evictions }),
	coreScalar("psc_lookups_total", "Paging-structure-cache lookups (all levels probed in parallel).",
		func(c *CoreResult) uint64 { return c.PSC.Lookups }),
	perCore("psc_hits_total", "Paging-structure-cache hits by page-table level.", ptLevels(2),
		func(c *CoreResult, out []uint64) { addInto(out, c.PSC.Hits[2:]) }),
	coreScalar("ptw_walks_total", "Page-table walks started.",
		func(c *CoreResult) uint64 { return c.Walker.Walks }),
	perCore("ptw_pte_reads_total", "PTE reads issued by the walker, by page-table level.", ptLevels(1),
		func(c *CoreResult, out []uint64) { addInto(out, c.Walker.StepsPerLevel[1:]) }),
	perCore("ptw_leaf_service_total", "Leaf PTE reads by the hierarchy level that serviced them.",
		enumLabels("src", mem.NumLevels),
		func(c *CoreResult, out []uint64) { addInto(out, c.Walker.LeafService.Count[:]) }),

	// DRAM channel.
	scalar("dram_reads_total", "DRAM read requests serviced.",
		func(r *Result) uint64 { return r.DRAM.Reads }),
	scalar("dram_writes_total", "DRAM write requests serviced.",
		func(r *Result) uint64 { return r.DRAM.Writes }),
	scalar("dram_row_hits_total", "DRAM reads hitting an open row buffer.",
		func(r *Result) uint64 { return r.DRAM.RowHits }),
	scalar("dram_row_closed_total", "DRAM reads to a closed (precharged) bank.",
		func(r *Result) uint64 { return r.DRAM.RowClosed }),
	scalar("dram_row_misses_total", "DRAM reads conflicting with a different open row.",
		func(r *Result) uint64 { return r.DRAM.RowMisses }),
	scalar("dram_tempo_prefetches_total", "TEMPO translation-triggered prefetches issued.",
		func(r *Result) uint64 { return r.DRAM.TEMPOIssued }),
	scalar("dram_busy_cycles_total", "DRAM data-bus cycles booked.",
		func(r *Result) uint64 { return r.DRAM.BusyCycles }),

	// Cores.
	coreScalar("cpu_instructions_total", "Measured instructions retired across cores.",
		func(c *CoreResult) uint64 { return c.Instructions }),
	coreScalar("cpu_cycles_total", "Measured core cycles summed across cores.",
		func(c *CoreResult) uint64 { return uint64(max(c.Cycles, 0)) }),
	perCore("cpu_stall_cycles_total", "ROB-head stall cycles by class.",
		enumLabels("class", cpu.NumStallClasses),
		func(c *CoreResult, out []uint64) { addInto(out, c.CPU.StallCycles[:]) }),
	coreScalar("cpu_branches_total", "Branches executed.",
		func(c *CoreResult) uint64 { return c.CPU.Branches }),
	coreScalar("cpu_mispredicts_total", "Branches mispredicted.",
		func(c *CoreResult) uint64 { return c.CPU.Mispredicts }),

	// Translation mechanisms (internal/xlat).
	coreScalar("xlat_requests_total", "STLB-missing translations handled by the configured mechanism.",
		func(c *CoreResult) uint64 { return c.Xlat.Requests }),
	coreScalar("xlat_walks_total", "Hardware page walks the mechanism issued (fallback or verification).",
		func(c *CoreResult) uint64 { return c.Xlat.Walks }),
	coreScalar("xlat_cache_hits_total", "Translations serviced by cache-resident TLB blocks (victima).",
		func(c *CoreResult) uint64 { return c.Xlat.CacheHitsL2 + c.Xlat.CacheHitsLLC }),
	coreScalar("xlat_tlb_block_inserts_total", "STLB-evicted entries parked into L2C/LLC (victima).",
		func(c *CoreResult) uint64 { return c.Xlat.TLBBlockInserts }),
	coreScalar("xlat_speculations_total", "Speculative translation fetches issued (revelator).",
		func(c *CoreResult) uint64 { return c.Xlat.Speculations }),
	coreScalar("xlat_misspeculations_total", "Speculations squashed by the verification walk (revelator).",
		func(c *CoreResult) uint64 { return c.Xlat.SpecWrong }),

	// Barrier-parallel engine.
	barrier("sim_parallel_runs_total", "Simulations executed by the deterministic barrier-parallel engine.",
		func(*ParallelStats) uint64 { return 1 }),
	barrier("sim_parallel_rounds_total", "Cycle-window barrier rounds executed by the parallel engine.",
		func(p *ParallelStats) uint64 { return p.Rounds }),
	barrier("sim_parallel_waves_total", "Shared-request resolution waves executed at parallel-engine barriers.",
		func(p *ParallelStats) uint64 { return p.Waves }),
	barrier("sim_parallel_shared_requests_total", "Requests parked at the parallel-engine coordinator and serviced in canonical core order.",
		func(p *ParallelStats) uint64 { return p.SharedRequests }),
	barrier("sim_parallel_skew_cycles_total", "Per-round spread between the most- and least-advanced core clocks, summed over rounds.",
		func(p *ParallelStats) uint64 { return p.SkewCycles }),
	barrier("sim_parallel_trace_refills_total", "Per-core trace ring-buffer refills (batched trace streaming).",
		func(p *ParallelStats) uint64 { return p.TraceRefills }),
}

// sum totals vs.
func sum(vs []uint64) uint64 {
	var n uint64
	for _, v := range vs {
		n += v
	}
	return n
}

// addInto adds vs element-wise into out (len(vs) == len(out)).
func addInto(out, vs []uint64) {
	for i, v := range vs {
		out[i] += v
	}
}

// NewMetricsSink registers every simulation family on reg, family by
// family, so each family's series are contiguous in the exposition.
// Registration is idempotent per registry (the registry hands back existing
// series), so a second sink on the same registry shares counters.
func NewMetricsSink(reg *metrics.Registry) *MetricsSink {
	m := &MetricsSink{}
	for _, f := range sinkFamilies {
		for _, ls := range f.labels {
			m.counters = append(m.counters, reg.Counter(f.name, f.help, ls...))
		}
	}
	return m
}

// Record folds one completed run's totals into the registry. Nil-safe on
// both receiver and result; safe for concurrent use (the value row belongs
// to the call, and every counter is one atomic word).
func (m *MetricsSink) Record(res *Result) {
	if m == nil || res == nil {
		return
	}
	row := make([]uint64, len(m.counters))
	off := 0
	for _, f := range sinkFamilies {
		f.fill(res, row[off:off+len(f.labels)])
		off += len(f.labels)
	}
	for i, v := range row {
		m.counters[i].Add(v)
	}
}
