package system

import (
	"fmt"
	"math"
	"slices"

	"atcsim/internal/cache"
	"atcsim/internal/cpu"
	"atcsim/internal/dram"
	"atcsim/internal/mem"
	"atcsim/internal/prefetch"
	"atcsim/internal/ptw"
	"atcsim/internal/stats"
	"atcsim/internal/telemetry"
	"atcsim/internal/tlb"
	"atcsim/internal/trace"
	"atcsim/internal/vm"
	"atcsim/internal/xlat"
)

// coreCtx is the per-hardware-thread state of a run.
type coreCtx struct {
	id int
	tr *trace.Trace
	// cur streams the trace in place, trace.CursorBlock instructions per
	// block (one refill each).
	cur    *trace.Cursor
	core   *cpu.Core
	bp     *cpu.Perceptron
	mmu    *ptw.MMU
	l1d    *cache.Cache
	l2     *cache.Cache
	lastIL mem.Addr

	// l1iPath and l1dPath are where the core issues fetches and data
	// accesses: the caches themselves under analytic timing, their queued
	// wrappers under queued timing.
	l1iPath cache.Lower
	l1dPath cache.Lower

	// req is the per-core scratch request reused across steps. Each cache
	// level keeps its own scratch for writebacks/prefetches, and the request
	// is fully consumed before step returns, so one per core suffices.
	req mem.Request

	replayService stats.ServiceDist
	lastLoadDone  int64

	phaseCount int
	done       bool
	baseCycle  int64
	// row is the thread's measured row (nil until freeze); l1dRow, l2Row
	// and l2Recall (leaf-translation, replay) are its private caches' stats
	// under the barrier engine.
	row           *CoreResult
	l1dRow, l2Row cache.Stats
	l2Recall      [2]stats.Recall
}

// sim is a fully wired machine.
type sim struct {
	cfg     Config
	cores   []*coreCtx
	l1is    []*cache.Cache // distinct instances, one per core (1 for SMT)
	l1ds    []*cache.Cache
	l2s     []*cache.Cache
	llc     *cache.Cache
	channel *dram.Controller

	// queued holds the per-level deque wrappers in creation order (LLC
	// first, then each core group's L2/L1D/L1I); draining walks the slice
	// in reverse so upper levels flush into lower queues before those
	// drain. Empty under analytic timing.
	queued []*cache.Queued

	// Observability (nil when disabled, as is Config.OnTick; the phase
	// loop then pays one predictable branch per instruction).
	tracer    *telemetry.Tracer
	measuring bool
	stepped   uint64 // measured instructions stepped (all cores, each to its target)
	ticked    uint64 // stepped count at the last tick

	// Invariant auditing (Config.CheckInvariants or the atcsim_invariants
	// build tag): every checkStride instructions the structural state of
	// all models is validated; violations panic.
	checking bool
	checkCtr int

	// par is the deterministic barrier-parallel engine, non-nil exactly for
	// multi-core machines: phases run each core as a coroutine with shared
	// LLC/DRAM requests resolved in canonical core order at cycle-window
	// barriers. Single-core and SMT machines are one scheduling unit and
	// run the same unit loop inline (see runPhase).
	par *parEngine
}

// Run simulates a single-core machine over one trace.
func Run(cfg Config, tr *trace.Trace) (*Result, error) {
	s, err := build(cfg, []*trace.Trace{tr}, false)
	if err != nil {
		return nil, err
	}
	return s.run(), nil
}

// RunSMT simulates a 2-way SMT core: both hardware threads share the entire
// cache hierarchy and split the ROB, matching the paper's SMT setup.
func RunSMT(cfg Config, t0, t1 *trace.Trace) (*Result, error) {
	cfg.CPU.ROBSize = defaultedROB(cfg.CPU) / 2
	s, err := build(cfg, []*trace.Trace{t0, t1}, true)
	if err != nil {
		return nil, err
	}
	return s.run(), nil
}

// RunMulti simulates one core per trace with private L1/L2/TLBs and a
// shared LLC and DRAM channel. The LLC capacity scales with the core count
// (2MB/slice per Table I); the extra slices add ways so the set count stays
// a power of two.
func RunMulti(cfg Config, traces []*trace.Trace) (*Result, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("system: no traces")
	}
	cfg.LLC.SizeBytes *= len(traces)
	cfg.LLC.Ways *= len(traces)
	// Table I: one DDR5 channel per four cores.
	if cfg.DRAM.Channels < (len(traces)+3)/4 {
		cfg.DRAM.Channels = (len(traces) + 3) / 4
	}
	s, err := build(cfg, traces, false)
	if err != nil {
		return nil, err
	}
	return s.run(), nil
}

func defaultedROB(c cpu.Config) int {
	if c.ROBSize > 0 {
		return c.ROBSize
	}
	return cpu.DefaultConfig().ROBSize
}

// build wires the machine. shareCoreCaches makes all threads share one
// L1I/L1D/L2 (SMT); otherwise those are private and only LLC/DRAM are
// shared.
func build(cfg Config, traces []*trace.Trace, shareCoreCaches bool) (*sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for i, tr := range traces {
		if tr == nil || len(tr.Insts) == 0 {
			return nil, fmt.Errorf("system: trace %d is empty", i)
		}
	}

	alloc, err := vm.NewFrameAllocator(cfg.PhysBits, !cfg.NoScatterFrames)
	if err != nil {
		return nil, err
	}
	channel := dram.NewController(cfg.DRAM)

	llc, err := cache.New(cfg.LLC, cache.DRAMAdapter{Read: channel.Read, Write: channel.Write})
	if err != nil {
		return nil, err
	}
	if cfg.TEMPO {
		channel.SetTEMPO(func(line mem.Addr, cycle int64) {
			llc.Prefetch(line, cycle, true)
		})
	}

	s := &sim{cfg: cfg, llc: llc, channel: channel}
	s.checking = cfg.CheckInvariants || invariantsDefault

	// Under queued timing every level sits behind a cache.Queued wrapper;
	// lower-pointer chaining goes through the wrappers so evict writebacks
	// land in the next level's write queue.
	queued := cfg.queuedTiming()
	qconf := func(level mem.Level) cache.QueueConfig {
		if cfg.Queues != nil {
			return *cfg.Queues
		}
		return cache.DefaultQueueConfig(level)
	}
	llcPath := cache.Lower(llc)
	if queued {
		q := cache.NewQueued(llc, qconf(mem.LvlLLC))
		s.queued = append(s.queued, q)
		llcPath = q
	}

	// Multi-core machines run under the barrier-parallel engine: each
	// core's private L2 then points at a per-core portal instead of the
	// shared LLC path, so shared accesses park at the coordinator and
	// resolve in canonical core order (see parallel.go).
	if len(traces) > 1 && !shareCoreCaches {
		s.par = newParEngine(s, llcPath, len(traces))
	}

	// coreCaches bundles one core group's caches with the access paths the
	// core (and walker) issue into.
	type coreCaches struct {
		l1i, l1d, l2     *cache.Cache
		l1iPath, l1dPath cache.Lower
	}
	var shared *coreCaches
	newCoreCaches := func(core int) (coreCaches, error) {
		var cc coreCaches
		l2Lower := llcPath
		if s.par != nil {
			l2Lower = s.par.portal(core)
		}
		l2, err := cache.New(cfg.L2, l2Lower)
		if err != nil {
			return cc, err
		}
		if pf, err := prefetch.New(cfg.L2Prefetcher, prefetch.Options{Degree: cfg.PrefetchDegree}); err != nil {
			return cc, err
		} else if pf != nil {
			l2.AttachPrefetcher(pf)
		}
		l2Path := cache.Lower(l2)
		if queued {
			q := cache.NewQueued(l2, qconf(mem.LvlL2))
			s.queued = append(s.queued, q)
			l2Path = q
		}
		l1d, err := cache.New(cfg.L1D, l2Path)
		if err != nil {
			return cc, err
		}
		l1i, err := cache.New(cfg.L1I, l2Path)
		if err != nil {
			return cc, err
		}
		cc = coreCaches{l1i: l1i, l1d: l1d, l2: l2, l1iPath: l1i, l1dPath: l1d}
		if queued {
			qd := cache.NewQueued(l1d, qconf(mem.LvlL1D))
			qi := cache.NewQueued(l1i, qconf(mem.LvlL1D))
			s.queued = append(s.queued, qd, qi)
			cc.l1dPath, cc.l1iPath = qd, qi
		}
		return cc, nil
	}

	for i, tr := range traces {
		var cc coreCaches
		if shared != nil {
			cc = *shared
		} else {
			if cc, err = newCoreCaches(i); err != nil {
				return nil, err
			}
			s.l1is = append(s.l1is, cc.l1i)
			s.l1ds = append(s.l1ds, cc.l1d)
			s.l2s = append(s.l2s, cc.l2)
			if shareCoreCaches {
				shared = &cc
			}
		}
		l1d, l2 := cc.l1d, cc.l2

		pt, err := vm.NewPageTable(alloc)
		if err != nil {
			return nil, err
		}
		if cfg.HugePages {
			if err := pt.SetHugePages(true); err != nil {
				return nil, err
			}
		}
		if s.par != nil {
			// Pin the shared frame allocator's assignment order at build
			// time (canonical core order) so concurrent cores never
			// demand-allocate; see prefault.
			if err := prefault(pt, tr); err != nil {
				return nil, err
			}
		}
		psc := tlb.NewPSC(cfg.PSC)
		walker, err := ptw.NewWalker(pt, psc, cc.l1dPath, i)
		if err != nil {
			return nil, err
		}
		if cfg.PageWalkers > 0 {
			walker.SetConcurrentWalks(cfg.PageWalkers)
		}
		dtlb, err := tlb.New(cfg.DTLB)
		if err != nil {
			return nil, err
		}
		itlb, err := tlb.New(cfg.ITLB)
		if err != nil {
			return nil, err
		}
		stlb, err := tlb.New(cfg.STLB)
		if err != nil {
			return nil, err
		}
		mmu, err := ptw.NewMMU(dtlb, itlb, stlb, walker)
		if err != nil {
			return nil, err
		}
		mech, err := xlat.New(cfg.Mechanism, xlat.Deps{
			L2: l2, LLC: llc, STLB: stlb,
			Oracle:            pt.Translate,
			CheckTranslations: s.checking,
		})
		if err != nil {
			return nil, err
		}
		mmu.SetMechanism(mech)

		// The L1D prefetcher (IPCP) needs virtual→physical translation with
		// TLB-probe semantics for cross-page candidates.
		if cfg.L1DPrefetcher != "" && cfg.L1DPrefetcher != "none" {
			translate := func(va mem.Addr) (mem.Addr, bool) {
				if pa, ok := mmu.Probe(va); ok {
					return pa, true
				}
				pa, err := mmu.Known(va)
				if err != nil {
					return 0, false
				}
				return pa, false
			}
			pf, err := prefetch.New(cfg.L1DPrefetcher, prefetch.Options{Translate: translate, Degree: cfg.PrefetchDegree})
			if err != nil {
				return nil, err
			}
			if pf != nil && (!shareCoreCaches || i == 0) {
				l1d.AttachPrefetcher(pf)
			}
		}

		core, err := cpu.New(cfg.CPU)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, &coreCtx{
			id:      i,
			tr:      tr,
			cur:     trace.NewCursor(tr),
			core:    core,
			bp:      cpu.NewPerceptron(),
			mmu:     mmu,
			l1d:     l1d,
			l2:      l2,
			lastIL:  ^mem.Addr(0),
			l1iPath: cc.l1iPath,
			l1dPath: cc.l1dPath,
		})
	}

	if cfg.TrackRecall {
		s.llc.EnableRecall()
		for _, l2 := range s.l2s {
			l2.EnableRecall()
		}
		for _, c := range s.cores {
			c.mmu.STLB.EnableRecall()
		}
	}

	// Observability wiring: hooks are nil-safe, so only the enabled
	// facilities cost anything.
	s.tracer = cfg.Tracer
	if s.tracer != nil {
		s.llc.SetTracer(s.tracer)
		s.channel.SetTracer(s.tracer)
		for _, c := range s.cores {
			c.core.SetTracer(s.tracer, c.id)
			c.mmu.SetTracer(s.tracer)
		}
		for _, ca := range s.privateCaches() {
			ca.SetTracer(s.tracer)
		}
	}
	return s, nil
}

// step executes one instruction on core c.
func (s *sim) step(c *coreCtx) {
	in := c.cur.Next() // replays the trace cyclically
	ip := mem.Addr(in.IP)

	d := c.core.NextDispatch()

	// Instruction fetch on line transitions; pipelined fetch hides the L1I
	// hit latency, so only the excess stalls the frontend.
	if il := mem.LineAddr(ip); il != c.lastIL {
		c.lastIL = il
		tr, err := c.mmu.TranslateInstr(ip, ip, d)
		if err == nil {
			c.req = mem.Request{Addr: tr.PA, VAddr: ip, IP: ip, Kind: mem.IFetch, Core: c.id}
			res := c.l1iPath.Access(&c.req, tr.Ready)
			if eff := res.Ready - s.cfg.L1I.Latency; eff > d {
				c.core.FrontendStall(eff)
				d = c.core.NextDispatch()
			}
		}
	}

	exec := c.core.Config().ExecLatency
	switch in.Op {
	case trace.OpALU:
		c.core.Dispatch(cpu.Entry{Complete: d + exec})

	case trace.OpBranch:
		c.core.CountBranch()
		if !c.bp.Update(uint64(ip), in.Taken) {
			c.core.Mispredict(d + exec)
		}
		c.core.Dispatch(cpu.Entry{Complete: d + exec})

	case trace.OpLoad:
		issueAt := d
		if in.Dep && c.lastLoadDone > issueAt {
			// Pointer chase: the address comes from the previous load.
			issueAt = c.lastLoadDone
		}
		s.tracer.BeginSample(c.id, "load", ip, in.Addr, issueAt)
		tr, err := c.mmu.Translate(in.Addr, ip, issueAt)
		if err != nil {
			s.tracer.EndSample("load", d+exec)
			c.core.Dispatch(cpu.Entry{Complete: d + exec})
			return
		}
		c.req = mem.Request{
			Addr: tr.PA, VAddr: in.Addr, IP: ip,
			Kind: mem.Load, IsReplay: tr.STLBMiss, Core: c.id,
		}
		issue := tr.Ready
		if tr.STLBMiss {
			// The replay re-issues through TLB fills and the scheduler —
			// the window ATP's prefetch overlaps.
			issue += s.cfg.ReplayIssueDelay
			if s.tracer.Active() {
				s.tracer.Span("request", "replay-issue", telemetry.LaneRequest, tr.Ready, issue)
			}
		}
		res := c.l1dPath.Access(&c.req, issue)
		if tr.STLBMiss {
			c.replayService.Record(res.Src)
		}
		s.tracer.EndSample("load", res.Ready)
		c.lastLoadDone = res.Ready
		c.core.Dispatch(cpu.Entry{
			Complete:  res.Ready,
			IsLoad:    true,
			STLBMiss:  tr.STLBMiss,
			TransDone: tr.Ready,
		})

	case trace.OpStore:
		s.tracer.BeginSample(c.id, "store", ip, in.Addr, d)
		tr, err := c.mmu.Translate(in.Addr, ip, d)
		if err != nil {
			s.tracer.EndSample("store", d+exec)
			c.core.Dispatch(cpu.Entry{Complete: d + exec})
			return
		}
		c.req = mem.Request{
			Addr: tr.PA, VAddr: in.Addr, IP: ip,
			Kind: mem.Store, IsReplay: tr.STLBMiss, Core: c.id,
		}
		c.l1dPath.Access(&c.req, tr.Ready)
		// Stores retire once translated (store-buffer commit); the write
		// drains in the background.
		complete := d + exec
		if tr.Ready > complete {
			complete = tr.Ready
		}
		s.tracer.EndSample("store", complete)
		c.core.Dispatch(cpu.Entry{Complete: complete})
	}
}

// runUnit steps one scheduling unit — a core, or SMT threads that share
// every private cache — picking its least-advanced thread while that
// thread's next dispatch is below window. Threads past target keep running,
// preserving contention; in the measured phase a thread freezes its row on
// the step it reaches target. The barrier engine runs each core as a unit
// to its round's window end. Inline (window math.MaxInt64) the unit is the
// whole machine: bookkeeping, when enabled, runs per step, and the loop
// returns on the step where the last thread reaches target, which run then
// freezes.
func (s *sim) runUnit(unit []*coreCtx, target int, window int64) {
	inline := window == math.MaxInt64
	perStep := inline && (s.checking || s.cfg.OnTick != nil)
	for {
		pick := unit[0]
		best := pick.core.NextDispatch()
		for _, c := range unit[1:] {
			if d := c.core.NextDispatch(); d < best {
				pick, best = c, d
			}
		}
		if best >= window {
			return
		}
		s.step(pick)
		pick.phaseCount++
		if perStep {
			measured := 0
			if pick.phaseCount <= target {
				measured = 1
			}
			s.barrierTick(1, measured)
		}
		if !pick.done && pick.phaseCount >= target {
			pick.done = true
			if inline && allDone(unit) {
				return
			}
			if s.measuring {
				s.freeze(pick)
			}
		}
	}
}

// allDone reports whether every thread has reached its phase target.
func allDone(cores []*coreCtx) bool {
	for _, c := range cores {
		if !c.done {
			return false
		}
	}
	return true
}

// drainQueued flushes every queued wrapper, upper levels first so their
// retiring entries (and evict writebacks) land in the lower queues before
// those drain. A no-op under analytic timing.
func (s *sim) drainQueued() {
	for i := len(s.queued) - 1; i >= 0; i-- {
		s.queued[i].Drain()
	}
}

// privateCaches lists each distinct L1I, L1D and L2 instance once.
func (s *sim) privateCaches() []*cache.Cache { return slices.Concat(s.l1is, s.l1ds, s.l2s) }

// freeze builds thread c's measured row, with its private caches' stats,
// and resets the thread's own counters: steps past its target (kept for
// contention) count into counters no row reads. Under the barrier engine
// that includes the core's private L2, whose reset hands its recall
// tracker fresh histograms, so the frozen l2Recall shares none with it.
func (s *sim) freeze(c *coreCtx) {
	row := s.coreRow(c, max(c.core.Cycle()-c.baseCycle, 1))
	c.row = &row
	c.l1dRow, c.l2Row = c.l1d.Stats(), c.l2.Stats()
	c.l2Recall = [2]stats.Recall{c.l2.Recall(mem.ClassTransLeaf), c.l2.Recall(mem.ClassReplay)}
	c.resetStats()
	if s.par != nil {
		c.l2.ResetStats()
	}
}

// resetStats zeroes the counters one thread owns. Each reset allocates
// fresh histograms, so a frozen row never shares one with a running thread.
func (c *coreCtx) resetStats() {
	c.core.ResetStats()
	c.mmu.ResetStats()
	c.replayService.Reset()
}

// resetStats zeroes every counter at the end of warmup.
func (s *sim) resetStats() {
	// In-flight queue entries carry pre-reset work; finish them so the
	// measured phase starts from empty deques.
	s.drainQueued()
	for _, c := range s.cores {
		c.resetStats()
	}
	for _, ca := range s.privateCaches() {
		ca.ResetStats()
	}
	s.llc.ResetStats()
	s.channel.ResetStats()
	for _, q := range s.queued {
		q.ResetStats()
	}
}

// tick hands a live Result to Config.OnTick. A consumer that reports
// intervals (HeartbeatTick) keeps its own previous totals, so the
// simulator holds nothing between ticks.
func (s *sim) tick() {
	s.cfg.OnTick(s.collect())
	s.ticked = s.stepped
}

// runPhase runs one warmup/measurement phase of target instructions per
// thread: on the barrier engine for multi-core machines, inline otherwise.
func (s *sim) runPhase(target int) {
	for _, c := range s.cores {
		c.phaseCount = 0
		c.done = false
	}
	if s.par != nil {
		s.par.phase(target)
		return
	}
	s.runUnit(s.cores, target, math.MaxInt64)
}

// run executes warmup + measurement and collects results.
func (s *sim) run() *Result {
	if s.cfg.Warmup > 0 {
		s.runPhase(s.cfg.Warmup)
	}
	s.resetStats()
	for _, c := range s.cores {
		c.baseCycle = c.core.Cycle()
	}
	s.measuring = true
	s.runPhase(s.cfg.Instructions)
	s.measuring = false
	if s.cfg.OnTick != nil && s.stepped > s.ticked {
		// The final partial interval, so the ticks cover the whole
		// measured phase.
		s.tick()
	}
	// Flush in-flight queue entries so collected stats (fills, writebacks,
	// backpressure counters) cover every measured request.
	s.drainQueued()
	if s.checking {
		s.auditInvariants()
	}
	for _, c := range s.cores {
		if c.row == nil {
			s.freeze(c)
		}
	}
	return s.collect()
}
