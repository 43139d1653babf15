package main

import (
	"fmt"
	"io"

	"atcsim/internal/cpu"
	"atcsim/internal/mem"
	"atcsim/internal/stats"
	"atcsim/internal/system"
)

// tally sums the deterministic event counts of one or more Results. Counts
// cover each run's measured phase (statistics reset after warmup), except
// the scheduler counters, which span warmup and measurement.
type tally struct {
	runs      float64
	insts     float64 // measured instructions, all cores
	simulated float64 // warmup + measured instructions, all cores
	cores     float64
	ipc       float64 // sum of per-core IPC
	stall     [cpu.NumStallClasses]float64

	dtlbAcc, dtlbMiss, itlbAcc, stlbAcc, stlbMiss float64
	pscLookups, pscHits                           float64
	walks, pteReads, leafAll, leafDRAM            float64

	lv [3]levelTally // L1D, L2C, LLC

	prefIssued, prefUseful float64
	dramReads, dramRowHits float64
	dramRowAll             float64

	enq, rqFull, mshrFull float64

	rounds, waves, shared, skew, refills float64
}

type levelTally struct {
	name                  string
	policy                string
	acc, miss             float64
	dataHit, dataMiss     float64 // non-translation classes
	transMiss, replayMiss float64
}

func isTranslation(c mem.Class) bool { return c == mem.ClassTransLeaf || c == mem.ClassTransUpper }

func tallyResults(rs []*system.Result) tally {
	t := tally{lv: [3]levelTally{{name: "l1d"}, {name: "l2c"}, {name: "llc"}}}
	for _, r := range rs {
		t.runs++
		t.simulated += float64(r.Cfg.Instructions+r.Cfg.Warmup) * float64(len(r.Cores))
		for i := range r.Cores {
			c := &r.Cores[i]
			t.insts += float64(c.Instructions)
			t.cores++
			t.ipc += c.IPC
			for k := range c.CPU.StallCycles {
				t.stall[k] += float64(c.CPU.StallCycles[k])
			}
			t.dtlbAcc += float64(c.MMU.DTLBAccesses)
			t.dtlbMiss += float64(c.MMU.DTLBMisses)
			t.itlbAcc += float64(c.MMU.ITLBAccesses)
			t.stlbAcc += float64(c.MMU.STLBAccesses)
			t.stlbMiss += float64(c.MMU.STLBMisses)
			t.pscLookups += float64(c.PSC.Lookups)
			for _, h := range c.PSC.Hits {
				t.pscHits += float64(h)
			}
			t.walks += float64(c.Walker.Walks)
			t.pteReads += float64(c.Walker.PTEReads)
			t.leafAll += float64(c.Walker.LeafService.Total())
			t.leafDRAM += float64(c.Walker.LeafService.Count[mem.LvlDRAM])
		}
		t.lv[1].policy, t.lv[2].policy = r.Cfg.L2.Policy, r.Cfg.LLC.Policy
		for i := range r.L1D {
			t.lv[0].add(&r.L1D[i].ClassCounters)
			t.prefIssued += float64(r.L1D[i].PrefIssued)
			t.prefUseful += float64(r.L1D[i].PrefUseful)
		}
		for i := range r.L2 {
			t.lv[1].add(&r.L2[i].ClassCounters)
			t.prefIssued += float64(r.L2[i].PrefIssued)
			t.prefUseful += float64(r.L2[i].PrefUseful)
		}
		t.lv[2].add(&r.LLC.ClassCounters)
		t.prefIssued += float64(r.LLC.PrefIssued)
		t.prefUseful += float64(r.LLC.PrefUseful)
		t.dramReads += float64(r.DRAM.Reads)
		t.dramRowHits += float64(r.DRAM.RowHits)
		t.dramRowAll += float64(r.DRAM.RowHits + r.DRAM.RowClosed + r.DRAM.RowMisses)
		for _, q := range r.Queues {
			t.enq += float64(q.Q.Enqueued)
			t.rqFull += float64(q.Q.RQFull)
			t.mshrFull += float64(q.Q.MSHRFull)
		}
		if p := r.Parallel; p != nil {
			t.rounds += float64(p.Rounds)
			t.waves += float64(p.Waves)
			t.shared += float64(p.SharedRequests)
			t.skew += float64(p.SkewCycles)
			t.refills += float64(p.TraceRefills)
		}
	}
	return t
}

func (l *levelTally) add(cc *stats.ClassCounters) {
	for c := mem.Class(0); c < mem.NumClasses; c++ {
		acc, miss := float64(cc.Access[c]), float64(cc.Miss[c])
		l.acc += acc
		l.miss += miss
		switch {
		case isTranslation(c):
			l.transMiss += miss
		default:
			l.dataHit += acc - miss
			l.dataMiss += miss
		}
		if c == mem.ClassReplay {
			l.replayMiss += miss
		}
	}
}

// perKilo is events per thousand measured instructions.
func (t *tally) perKilo(events float64) float64 { return ratio(1000*events, t.insts) }

// layerMetrics derives the per-layer count metrics from a tally.
func (t *tally) layerMetrics(m metricSet) {
	m.set("cpu.ipc", ratio(t.ipc, t.cores))
	m.set("cpu.cpi_translation", ratio(t.stall[cpu.StallTranslation], t.insts))
	m.set("cpu.cpi_replay", ratio(t.stall[cpu.StallReplay], t.insts))
	m.set("cpu.cpi_nonreplay", ratio(t.stall[cpu.StallNonReplay], t.insts))
	m.set("cpu.cpi_other", ratio(t.stall[cpu.StallOther], t.insts))
	m.set("tlb.stlb_mpki", t.perKilo(t.stlbMiss))
	m.set("tlb.dtlb_mpki", t.perKilo(t.dtlbMiss))
	m.set("tlb.psc_hit_ratio", ratio(t.pscHits, t.pscLookups))
	m.set("ptw.walks_pki", t.perKilo(t.walks))
	m.set("ptw.pte_reads_per_walk", ratio(t.pteReads, t.walks))
	m.set("ptw.leaf_onchip_ratio", ratio(t.leafAll-t.leafDRAM, t.leafAll))
	for _, l := range t.lv {
		m.set("cache."+l.name+".apki", t.perKilo(l.acc))
		m.set("cache."+l.name+".mpki", t.perKilo(l.miss))
	}
	for _, l := range t.lv[1:] {
		m.set("cache."+l.name+".trans_mpki", t.perKilo(l.transMiss))
		m.set("cache."+l.name+".replay_mpki", t.perKilo(l.replayMiss))
	}
	m.set("prefetch.issued_pki", t.perKilo(t.prefIssued))
	m.set("prefetch.useful_ratio", ratio(t.prefUseful, t.prefIssued))
	m.set("dram.reads_pki", t.perKilo(t.dramReads))
	m.set("dram.row_hit_ratio", ratio(t.dramRowHits, t.dramRowAll))
}

// queuedMetrics and schedMetrics cover the layers only the queued,
// barrier-parallel workload runs.
func (t *tally) queuedMetrics(m metricSet) {
	m.set("queued.enqueued_pki", t.perKilo(t.enq))
	m.set("queued.rq_full_pki", t.perKilo(t.rqFull))
	m.set("queued.mshr_full_pki", t.perKilo(t.mshrFull))
}

func (t *tally) schedMetrics(m metricSet) {
	m.set("sched.rounds_per_op", ratio(t.rounds, t.runs))
	m.set("sched.waves_per_round", ratio(t.waves, t.rounds))
	m.set("sched.shared_req_pki", ratio(1000*t.shared, t.simulated))
	m.set("sched.skew_cycles_per_round", ratio(t.skew, t.rounds))
	m.set("trace.refills_per_op", ratio(t.refills, t.runs))
}

// share is one line of the attribution ledger: a layer's events per
// measured instruction times its probe cost, as a share of the measured
// host ns per simulated instruction.
type share struct {
	layer     string
	perInst   float64 // events per measured instruction
	costNs    float64 // probe ns per event
	predicted float64 // ns per instruction
}

// attribution predicts each layer's host ns per instruction from the event
// counts and probe costs. It assumes warmup runs at the measured phase's
// event rates.
func (t *tally) attribution(c costs) []share {
	perInst := func(x float64) float64 { return ratio(x, t.insts) }
	var cacheNs, cacheEv, replNs, replEv float64
	for i, l := range t.lv {
		cacheEv += l.dataHit + l.dataMiss
		cacheNs += l.dataHit*c.cacheHit + l.dataMiss*c.cacheMiss
		if i > 0 {
			replEv += l.dataMiss
			replNs += l.dataMiss * c.repl[l.policy]
		}
	}
	lookups := t.dtlbAcc + t.itlbAcc + t.stlbAcc
	out := []share{
		{layer: "cache", perInst: perInst(cacheEv), costNs: ratio(cacheNs, cacheEv)},
		{layer: "repl", perInst: perInst(replEv), costNs: ratio(replNs, replEv)},
		{layer: "tlb", perInst: perInst(lookups), costNs: c.tlbLookup},
		{layer: "xlat", perInst: perInst(t.stlbMiss), costNs: c.xlatMiss},
		{layer: "dram", perInst: perInst(t.dramReads), costNs: c.dramRead},
		{layer: "queued", perInst: perInst(t.enq), costNs: c.queuedPer},
	}
	for i := range out {
		out[i].predicted = out[i].perInst * out[i].costNs
	}
	return out
}

// ledger sets the attr.* shares against the measured ns per instruction and
// build time, and prints the split. The residual is what neither the layer
// predictions nor the measured machine build explain: the core model, the
// trace cursor, the scheduler and the prediction's own error.
func ledger(w io.Writer, name string, shares []share, nsPerInst, buildNsPerInst float64, m metricSet) {
	fmt.Fprintf(w, "attribution %s: measured %.2f ns/inst\n", name, nsPerInst)
	fmt.Fprintf(w, "  %-8s %12s %10s %12s %8s\n", "layer", "events/inst", "ns/event", "ns/inst", "share")
	rest := 1.0
	for _, s := range shares {
		sh := ratio(s.predicted, nsPerInst)
		rest -= sh
		m.set("attr."+s.layer+"_share", sh)
		fmt.Fprintf(w, "  %-8s %12.4f %10.2f %12.3f %7.1f%%\n", s.layer, s.perInst, s.costNs, s.predicted, 100*sh)
	}
	bs := ratio(buildNsPerInst, nsPerInst)
	rest -= bs
	fmt.Fprintf(w, "  %-8s %12s %10s %12.3f %7.1f%%\n", "build", "-", "-", buildNsPerInst, 100*bs)
	fmt.Fprintf(w, "  %-8s %12s %10s %12.3f %7.1f%%\n", "residual", "-", "-", rest*nsPerInst, 100*rest)
	m.set("attr.residual_share", rest)
}
