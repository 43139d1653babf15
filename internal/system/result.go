package system

import (
	"sort"

	"atcsim/internal/cache"
	"atcsim/internal/cpu"
	"atcsim/internal/dram"
	"atcsim/internal/mem"
	"atcsim/internal/ptw"
	"atcsim/internal/stats"
	"atcsim/internal/tlb"
	"atcsim/internal/xlat"
)

// CoreResult captures one hardware thread's measured-phase statistics,
// taken once on the step it reaches its target: exactly Instructions
// instructions, none of the steps it runs on while other threads finish.
type CoreResult struct {
	Workload     string
	Instructions uint64
	Cycles       int64
	IPC          float64

	CPU    cpu.Stats
	MMU    ptw.MMUStats
	Walker ptw.WalkerStats
	// PSC counts paging-structure-cache lookups and per-level hits.
	PSC tlb.PSCStats
	// ReplayService records which hierarchy level serviced replay loads
	// (the "R" series of Fig. 3).
	ReplayService stats.ServiceDist
	STLB          tlb.Stats
	// STLBRecall is the Fig. 18 recall distribution (empty unless
	// TrackRecall).
	STLBRecall stats.Recall
	// Mechanism names the translation mechanism that serviced this core's
	// STLB misses; Xlat holds its counters (see xlat.Stats).
	Mechanism string
	Xlat      xlat.Stats
}

// STLBMPKI is the paper's headline pressure metric.
func (c *CoreResult) STLBMPKI() float64 {
	return stats.MPKI(c.MMU.STLBMisses, c.Instructions)
}

// Result is the outcome of one simulation run. Each Cores row stops at
// its thread's own target; on a multi-core machine so do that core's L1D
// and L2 entries, and core 0's L2 recall distributions. Everything else
// stops at the end of the measured phase, after the queued engine's final
// drain: the L1D, L2 and L2 recall of a single-core or SMT machine, the
// LLC and its recall, DRAM, Queues and Parallel.
type Result struct {
	Cfg   Config
	Cores []CoreResult

	// L1D and L2 hold stats for each distinct cache instance (one for SMT,
	// one per core otherwise).
	L1D []cache.Stats
	L2  []cache.Stats
	LLC cache.Stats

	DRAM dram.Stats

	// Queues holds per-level deque statistics from the queued timing engine,
	// aggregated over cache instances with the same name and ordered by
	// level then name. Empty (and omitted from JSON, keeping analytic
	// results byte-identical) under analytic timing.
	Queues []QueueLevel `json:",omitempty"`

	// Recall-distance distributions (empty unless TrackRecall). L2 data
	// comes from the first L2 instance and stops with its L2 entry.
	L2RecallTrans   stats.Recall
	L2RecallReplay  stats.Recall
	LLCRecallTrans  stats.Recall
	LLCRecallReplay stats.Recall

	// Parallel reports the barrier engine's behavior on a multi-core
	// machine; nil (and omitted from JSON) for single-core and SMT
	// machines, which run as one inline unit.
	Parallel *ParallelStats `json:",omitempty"`
}

// ParallelStats describes one run of the deterministic barrier-parallel
// engine (DESIGN.md §10). Every field is a pure function of config and
// traces — identical for every SimJobs value and worker schedule — so the
// struct serializes into byte-identical reports.
type ParallelStats struct {
	// Rounds counts cycle-window barriers executed across warmup and
	// measurement.
	Rounds uint64
	// Waves counts shared-request resolution waves; a round contains zero
	// or more waves.
	Waves uint64
	// SharedRequests counts L2-miss-path requests parked at the
	// coordinator and serviced against the shared LLC/DRAM path in
	// canonical core order.
	SharedRequests uint64
	// SkewCycles accumulates, per round, the spread between the most- and
	// least-advanced core clocks at the barrier — the cost ceiling of the
	// lockstep windows.
	SkewCycles uint64
	// TraceRefills counts per-core trace ring-buffer refills (see
	// trace.Cursor); it scales with instructions executed, not with
	// SimJobs.
	TraceRefills uint64
}

// QueueLevel aggregates one cache level's queued-engine deque statistics
// (per-core instances with the same name — e.g. private L2Cs — are summed).
type QueueLevel struct {
	Name  string
	Level mem.Level
	Q     cache.QueueStats
}

// coreRow reads thread c's own counters, given its cycles since
// measurement start.
func (s *sim) coreRow(c *coreCtx, cycles int64) CoreResult {
	return CoreResult{
		Workload:      c.tr.Name,
		Instructions:  uint64(s.cfg.Instructions),
		Cycles:        cycles,
		IPC:           cpu.IPC(uint64(s.cfg.Instructions), cycles),
		CPU:           c.core.Stats(),
		MMU:           c.mmu.Stats(),
		Walker:        c.mmu.W.Stats(),
		PSC:           c.mmu.W.PSCStats(),
		ReplayService: c.replayService,
		STLB:          c.mmu.STLB.Stats(),
		STLBRecall:    c.mmu.STLB.Recall(),
		Mechanism:     c.mmu.Mechanism().Name(),
		Xlat:          c.mmu.Mechanism().Stats(),
	}
}

// collect snapshots all component statistics into a Result; with coreRow
// it is the only reader of the components' Stats. Per-core rows are placed
// by canonical core index, not iteration order, so the Result is identical
// however the scheduler ordered the cores. A finished thread contributes
// its frozen row; a running one (a live Result, taken mid-phase for the
// heartbeat) its counters so far, with Cycles up to its current cycle.
func (s *sim) collect() *Result {
	r := &Result{Cfg: s.cfg, LLC: s.llc.Stats(), DRAM: s.channel.Stats()}
	r.Cores = make([]CoreResult, len(s.cores))
	for _, c := range s.cores {
		if c.row != nil {
			r.Cores[c.id] = *c.row
		} else {
			r.Cores[c.id] = s.coreRow(c, c.core.Cycle()-c.baseCycle)
		}
	}
	for i, l1d := range s.l1ds {
		r.L1D = append(r.L1D, l1d.Stats())
		r.L2 = append(r.L2, s.l2s[i].Stats())
	}
	if s.par != nil {
		ps := s.par.statsSnapshot()
		for _, c := range s.cores {
			ps.TraceRefills += c.cur.Refills()
			// The core's private caches freeze with its row.
			if c.row != nil {
				r.L1D[c.id], r.L2[c.id] = c.l1dRow, c.l2Row
			}
		}
		r.Parallel = &ps
	}
	r.L2RecallTrans, r.L2RecallReplay = s.l2s[0].Recall(mem.ClassTransLeaf), s.l2s[0].Recall(mem.ClassReplay)
	if c := s.cores[0]; s.par != nil && c.row != nil {
		r.L2RecallTrans, r.L2RecallReplay = c.l2Recall[0], c.l2Recall[1]
	}
	r.LLCRecallTrans, r.LLCRecallReplay = s.llc.Recall(mem.ClassTransLeaf), s.llc.Recall(mem.ClassReplay)
	if len(s.queued) > 0 {
		idx := map[string]int{}
		for _, q := range s.queued {
			if i, ok := idx[q.Name()]; ok {
				r.Queues[i].Q.Add(q.Stats())
			} else {
				idx[q.Name()] = len(r.Queues)
				r.Queues = append(r.Queues, QueueLevel{Name: q.Name(), Level: q.Level(), Q: q.Stats()})
			}
		}
		sort.Slice(r.Queues, func(i, j int) bool {
			if r.Queues[i].Level != r.Queues[j].Level {
				return r.Queues[i].Level < r.Queues[j].Level
			}
			return r.Queues[i].Name < r.Queues[j].Name
		})
	}
	return r
}

// sumCores totals one per-core counter over every core.
func sumCores(r *Result, v func(c *CoreResult) uint64) uint64 {
	var t uint64
	for i := range r.Cores {
		t += v(&r.Cores[i])
	}
	return t
}

// lastCycle is the largest per-core Cycles: on a live Result, the most
// advanced core's cycle since measurement start.
func lastCycle(r *Result) int64 {
	var end int64
	for i := range r.Cores {
		end = max(end, r.Cores[i].Cycles)
	}
	return end
}

// TotalInstructions sums the measured instructions over all cores.
func (r *Result) TotalInstructions() uint64 {
	return sumCores(r, func(c *CoreResult) uint64 { return c.Instructions })
}

// IPC returns core 0's IPC — the single-core headline number.
func (r *Result) IPC() float64 {
	if len(r.Cores) == 0 {
		return 0
	}
	return r.Cores[0].IPC
}

// SpeedupOver returns this run's IPC relative to a baseline run
// (single-core normalized performance).
func (r *Result) SpeedupOver(base *Result) float64 {
	if base == nil || base.IPC() == 0 {
		return 0
	}
	return r.IPC() / base.IPC()
}

// HarmonicSpeedupOver computes the paper's SMT metric: the harmonic mean of
// per-thread speedups against a baseline run of the same mix.
func (r *Result) HarmonicSpeedupOver(base *Result) float64 {
	if base == nil || len(base.Cores) != len(r.Cores) {
		return 0
	}
	sp := make([]float64, len(r.Cores))
	for i := range r.Cores {
		if base.Cores[i].IPC == 0 {
			return 0
		}
		sp[i] = r.Cores[i].IPC / base.Cores[i].IPC
	}
	return stats.HarmonicMean(sp)
}

// LLCMPKI returns the LLC miss MPKI for one access class, normalized to the
// total measured instructions.
func (r *Result) LLCMPKI(class mem.Class) float64 {
	return stats.MPKI(r.LLC.Miss[class], r.TotalInstructions())
}

// L2MPKI aggregates L2 misses of a class across all L2 instances.
func (r *Result) L2MPKI(class mem.Class) float64 {
	var m uint64
	for i := range r.L2 {
		m += r.L2[i].Miss[class]
	}
	return stats.MPKI(m, r.TotalInstructions())
}

// L1DMPKI aggregates L1D misses of a class.
func (r *Result) L1DMPKI(class mem.Class) float64 {
	var m uint64
	for i := range r.L1D {
		m += r.L1D[i].Miss[class]
	}
	return stats.MPKI(m, r.TotalInstructions())
}

// STLBMPKI aggregates STLB misses across cores.
func (r *Result) STLBMPKI() float64 {
	return stats.MPKI(sumCores(r, func(c *CoreResult) uint64 { return c.MMU.STLBMisses }), r.TotalInstructions())
}

// StallCycles sums a stall class over all cores.
func (r *Result) StallCycles(class cpu.StallClass) uint64 {
	return sumCores(r, func(c *CoreResult) uint64 { return c.CPU.StallCycles[class] })
}

// TranslationHitRate is the fraction of leaf-level PTE reads serviced
// on-chip (not by DRAM) — the paper's "99% of translations hit on-chip"
// claim for the enhanced hierarchy.
func (r *Result) TranslationHitRate() float64 {
	var onchip, total uint64
	for i := range r.Cores {
		d := &r.Cores[i].Walker.LeafService
		total += d.Total()
		onchip += d.Total() - d.Count[mem.LvlDRAM]
	}
	return stats.Ratio(onchip, total)
}
