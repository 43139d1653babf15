package system

import (
	"atcsim/internal/cache"
	"atcsim/internal/cpu"
	"atcsim/internal/dram"
	"atcsim/internal/mem"
	"atcsim/internal/stats"
	"atcsim/internal/telemetry"
)

// HeartbeatTick returns an OnTick consumer that feeds hb one interval row
// per tick: the counters' growth since the previous tick, the first row's
// since measurement start, where every counter reads zero. It serves one
// run.
func HeartbeatTick(hb *telemetry.Heartbeat) func(*Result) {
	var prev rowSums
	return func(r *Result) {
		cur := sumRow(r)
		hb.Tick(intervalRow(prev, cur))
		prev = cur
	}
}

// rowSums are the run-wide totals of the counters a heartbeat row reads.
type rowSums struct {
	cycle                                    int64
	insts, stlbAcc, stlbMiss, leaf, leafDRAM uint64
	dram                                     dram.Stats
	miss                                     [mem.LvlDRAM][mem.NumClasses]uint64
	stalls                                   [cpu.NumStallClasses]uint64
}

// sumRow totals the counters of one live Result over its cores and cache
// instances.
func sumRow(r *Result) rowSums {
	t := rowSums{cycle: lastCycle(r)}
	for i := range r.Cores {
		c := &r.Cores[i]
		t.insts += c.CPU.Instructions
		t.stlbAcc += c.MMU.STLBAccesses
		t.stlbMiss += c.MMU.STLBMisses
		t.leaf += c.Walker.LeafService.Total()
		t.leafDRAM += c.Walker.LeafService.Count[mem.LvlDRAM]
		for k, n := range c.CPU.StallCycles {
			t.stalls[k] += n
		}
	}
	forLevels(r, func(li int, st *cache.Stats) {
		for cl, n := range st.Miss {
			t.miss[li][cl] += n
		}
	})
	t.dram = r.DRAM
	return t
}

// intervalRow derives the heartbeat row between the totals of two live
// Results of one run: each counter's growth, as MPKI over the instructions
// retired in between or as a ratio of grown counts.
func intervalRow(a, b rowSums) telemetry.Row {
	insts := b.insts - a.insts
	misses := func(lvl mem.Level, classes ...mem.Class) uint64 {
		var n uint64
		for _, cl := range classes {
			n += b.miss[lvl][cl] - a.miss[lvl][cl]
		}
		return n
	}
	demandMPKI := func(lvl mem.Level) float64 {
		return stats.MPKI(misses(lvl, mem.ClassNonReplay, mem.ClassReplay), insts)
	}
	stlbMisses := b.stlbMiss - a.stlbMiss
	leaf, leafDRAM := b.leaf-a.leaf, b.leafDRAM-a.leafDRAM
	cycles := b.cycle - a.cycle
	rowOutcomes := dram.Stats{
		RowHits:   b.dram.RowHits - a.dram.RowHits,
		RowClosed: b.dram.RowClosed - a.dram.RowClosed,
		RowMisses: b.dram.RowMisses - a.dram.RowMisses,
	}
	return telemetry.Row{
		EndCycle:     b.cycle,
		Cycles:       cycles,
		Instructions: insts,
		IPC:          cpu.IPC(insts, cycles),

		L1DMPKI:       demandMPKI(mem.LvlL1D),
		L2MPKI:        demandMPKI(mem.LvlL2),
		LLCMPKI:       demandMPKI(mem.LvlLLC),
		LLCReplayMPKI: stats.MPKI(misses(mem.LvlLLC, mem.ClassReplay), insts),
		LLCLeafMPKI:   stats.MPKI(misses(mem.LvlLLC, mem.ClassTransLeaf), insts),

		STLBMissRate: stats.Ratio(stlbMisses, b.stlbAcc-a.stlbAcc),
		STLBMPKI:     stats.MPKI(stlbMisses, insts),
		TransHitRate: stats.Ratio(leaf-leafDRAM, leaf),

		StallTranslation: b.stalls[cpu.StallTranslation] - a.stalls[cpu.StallTranslation],
		StallReplay:      b.stalls[cpu.StallReplay] - a.stalls[cpu.StallReplay],
		StallNonReplay:   b.stalls[cpu.StallNonReplay] - a.stalls[cpu.StallNonReplay],
		StallOther:       b.stalls[cpu.StallOther] - a.stalls[cpu.StallOther],

		DRAMRowHitRate: rowOutcomes.RowHitRate(),
	}
}
