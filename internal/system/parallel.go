package system

import (
	"runtime"
	"sync"

	"atcsim/internal/cache"
	"atcsim/internal/mem"
	"atcsim/internal/trace"
	"atcsim/internal/vm"
	"atcsim/internal/xlat"
)

// parallelWindow is the cycle quantum of one barrier round: every core runs
// until its next dispatch would cross the window end, parking at the
// coordinator whenever it needs the shared LLC/DRAM path. The window bounds
// how far core clocks can drift apart between barriers. The constant is part
// of the timing model for eligible multi-core machines — results are
// byte-identical across SimJobs values for any window, but changing the
// window changes which accesses share a wave — so it is a compile-time
// constant, not a runtime knob.
const parallelWindow = 2048

// parallelEligible reports whether build may wire the machine for the
// barrier-parallel engine. The engine requires every core's step path to
// stay core-local between portal crossings, so configurations that reach
// shared structures from inside a core step fall back to the serial
// interleaved scheduler:
//
//   - single-core machines have nothing to parallelize, and SMT threads
//     share the entire private hierarchy;
//   - the sampled request tracer is one sink fed from every level;
//   - mechanisms marked shared (victima probes and fills the LLC inside
//     Translate) — see xlat.CoreLocal;
//   - L1D prefetchers translate through mmu.Known, which walks the page
//     table backed by the shared frame allocator.
func parallelEligible(cfg Config, nCores int, shareCoreCaches bool) bool {
	if nCores < 2 || shareCoreCaches {
		return false
	}
	if cfg.Telemetry.TracerOrNil() != nil {
		return false
	}
	if !xlat.CoreLocal(cfg.Mechanism) {
		return false
	}
	if cfg.L1DPrefetcher != "" && cfg.L1DPrefetcher != "none" {
		return false
	}
	return true
}

// prefault maps every page a core's trace will touch — instruction and data
// — before the run starts. Cores share one frame allocator, so under the
// parallel engine demand-paged first-touch order would depend on worker
// scheduling; pre-faulting each core's footprint in canonical core order
// pins the frame assignment at build time instead. Interior page-table
// frames allocate here too, so an eligible run performs no allocator calls
// at all while cores are concurrent.
func prefault(pt *vm.PageTable, tr *trace.Trace) error {
	seen := make(map[mem.Addr]struct{}, 1024)
	touch := func(va mem.Addr) error {
		pn := mem.PageNumber(va)
		if _, ok := seen[pn]; ok {
			return nil
		}
		seen[pn] = struct{}{}
		_, err := pt.Translate(va)
		return err
	}
	for i := range tr.Insts {
		in := &tr.Insts[i]
		if err := touch(in.IP); err != nil {
			return err
		}
		if in.Op == trace.OpLoad || in.Op == trace.OpStore {
			if err := touch(in.Addr); err != nil {
				return err
			}
		}
	}
	return nil
}

// parEngine runs one worker goroutine per core, started at the beginning of
// each phase and stopped at its end, that steps its core through cycle-window
// rounds; every shared-hierarchy request is resolved serially, in canonical
// core-index order, at coordinator waves. The schedule — round windows, wave
// membership, resolution order — is a pure function of config and traces:
// SimJobs only caps how many cores compute concurrently between barriers,
// so reports are byte-identical for every value.
//
// Protocol per round: each core steps until its next dispatch reaches the
// window end. A core that needs the shared path parks inside its portal and
// releases its compute slot. Once every core is parked or finished, the
// coordinator services the parked requests in core order (one wave) and
// resumes them; the round ends when all cores have finished the window.
// Wave k+1 only forms after every core resumed in wave k has parked again
// or finished, which is what makes membership independent of worker timing.
type parEngine struct {
	sim   *sim
	lower cache.Lower // real shared path: the LLC or its queued wrapper
	jobs  int

	// active gates the portals: outside rounds (build, queue drains, stat
	// collection) portal accesses pass straight through on the caller's
	// goroutine.
	active bool

	// slots is the SimJobs semaphore. A worker holds a token while stepping
	// its core and returns it while parked or finished, so at most jobs
	// cores compute concurrently and jobs < cores cannot deadlock.
	slots chan struct{}
	// parkCh carries worker→coordinator transitions: a core id parks on a
	// shared request, ^id reports the window finished.
	parkCh chan int
	// windows hands each core's worker the end cycle of the next round; the
	// phase closes them to stop the workers, and workers joins their exit.
	windows []chan int64
	workers sync.WaitGroup

	portals []*sharedPortal
	parked  []bool
	nParked int

	target    int // phase instruction target per core
	lastTotal int // phaseCount sum at the previous barrier

	rounds, waves, sharedReqs, skew uint64
}

// newParEngine wires portals and the slot semaphore for n cores.
func newParEngine(s *sim, lower cache.Lower, n int) *parEngine {
	jobs := s.cfg.SimJobs
	if jobs == 0 {
		jobs = runtime.NumCPU()
	}
	if jobs < 1 {
		jobs = 1
	}
	if jobs > n {
		jobs = n
	}
	e := &parEngine{
		sim:    s,
		lower:  lower,
		jobs:   jobs,
		slots:  make(chan struct{}, jobs),
		parkCh: make(chan int, n),
		parked: make([]bool, n),
	}
	for i := 0; i < jobs; i++ {
		e.slots <- struct{}{}
	}
	for i := 0; i < n; i++ {
		e.portals = append(e.portals, &sharedPortal{eng: e, core: i, resume: make(chan struct{})})
	}
	return e
}

// portal returns the cache.Lower core's private L2 should sit on.
func (e *parEngine) portal(core int) cache.Lower { return e.portals[core] }

// sharedPortal is the cache.Lower each private L2 points at under the
// parallel engine. During a round it parks the request with the
// coordinator; outside rounds it is a transparent pass-through.
type sharedPortal struct {
	eng  *parEngine
	core int

	// Parked-request mailbox: req/cycle are written by the core's worker
	// before it announces the park, res by the coordinator before it
	// signals resume; the parkCh/resume channel pair orders the handoff.
	req    *mem.Request
	cycle  int64
	res    cache.Result
	resume chan struct{}
}

// Access implements cache.Lower. Inside a round it parks the request and
// blocks until the coordinator has serviced it in a wave; the compute slot
// is released while blocked so another core can run (jobs < cores stays
// deadlock-free) and reacquired before the window resumes.
func (p *sharedPortal) Access(req *mem.Request, cycle int64) cache.Result {
	e := p.eng
	if !e.active {
		return e.lower.Access(req, cycle)
	}
	p.req, p.cycle = req, cycle
	e.slots <- struct{}{}
	e.parkCh <- p.core
	<-p.resume
	<-e.slots
	return p.res
}

// phase is the barrier-parallel counterpart of sim.phase: run every core
// for target instructions. Cores that reach the target keep running —
// preserving contention, like the serial scheduler — until all are done;
// completion cycles are recorded at the target boundary. Done-ness is only
// observed at round barriers, so the final round always runs to its window
// end and the round/wave schedule stays independent of SimJobs.
func (e *parEngine) phase(target int) {
	s := e.sim
	for _, c := range s.cores {
		c.phaseCount = 0
		c.done = false
	}
	e.target = target
	e.lastTotal = 0
	e.active = true
	e.windows = make([]chan int64, len(s.cores))
	for i, c := range s.cores {
		e.windows[i] = make(chan int64, 1)
		e.workers.Add(1)
		go e.worker(c, e.windows[i])
	}
	for {
		done := true
		for _, c := range s.cores {
			if !c.done {
				done = false
				break
			}
		}
		if done {
			break
		}
		e.runRound()
	}
	for _, w := range e.windows {
		close(w)
	}
	e.workers.Wait()
	e.active = false
}

// worker runs its core through every round window it is handed until the
// phase closes the channel.
func (e *parEngine) worker(c *coreCtx, windows <-chan int64) {
	defer e.workers.Done()
	for window := range windows {
		e.runWindow(c, window)
	}
}

// runRound executes one cycle window: hand every core's worker the window
// end, collect parks and finishes, resolve waves whenever every non-finished
// core is parked, and batch the serial scheduler's per-step bookkeeping at
// the barrier. Every core ends the round with NextDispatch at or past the
// window end, so the global minimum strictly advances and phases terminate.
func (e *parEngine) runRound() {
	s := e.sim
	window := int64(-1)
	for _, c := range s.cores {
		if d := c.core.NextDispatch(); window < 0 || d < window {
			window = d
		}
	}
	window += parallelWindow

	running := len(s.cores)
	for _, w := range e.windows {
		w <- window
	}
	finished := 0
	for finished < len(s.cores) {
		id := <-e.parkCh
		running--
		if id < 0 {
			finished++
		} else {
			e.parked[id] = true
			e.nParked++
		}
		if running == 0 && e.nParked > 0 {
			running += e.resolveWave()
		}
	}
	e.rounds++

	lo, hi := int64(-1), int64(-1)
	total := 0
	for _, c := range s.cores {
		d := c.core.NextDispatch()
		if lo < 0 || d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
		total += c.phaseCount
	}
	e.skew += uint64(hi - lo)
	delta := total - e.lastTotal
	e.lastTotal = total
	s.barrierTick(delta)
}

// runWindow steps one core until its next dispatch reaches the window end,
// then reports the finish. Only per-core state is touched here; every
// shared-hierarchy access parks inside the core's portal.
func (e *parEngine) runWindow(c *coreCtx, window int64) {
	<-e.slots
	s := e.sim
	for c.core.NextDispatch() < window {
		s.step(c)
		c.phaseCount++
		if !c.done && c.phaseCount >= e.target {
			c.done = true
			c.doneCycle = c.core.Cycle()
		}
	}
	e.slots <- struct{}{}
	e.parkCh <- ^c.id
}

// resolveWave services every parked request against the real shared path in
// ascending core order — the canonical order that makes results independent
// of worker scheduling — and resumes the owners. A resumed core may park
// again during the wave; its park buffers in parkCh and joins the next
// wave. Returns how many workers re-entered the running state.
func (e *parEngine) resolveWave() int {
	e.waves++
	resumed := 0
	for id, p := range e.portals {
		if !e.parked[id] {
			continue
		}
		e.parked[id] = false
		p.res = e.lower.Access(p.req, p.cycle)
		e.sharedReqs++
		resumed++
		p.resume <- struct{}{}
	}
	e.nParked = 0
	return resumed
}

// statsSnapshot exports the engine counters for Result.Parallel. Everything
// here is a pure function of config and traces, never of SimJobs or worker
// timing, so it is safe to serialize into byte-identical reports.
func (e *parEngine) statsSnapshot() ParallelStats {
	return ParallelStats{
		Rounds:         e.rounds,
		Waves:          e.waves,
		SharedRequests: e.sharedReqs,
		SkewCycles:     e.skew,
	}
}

// barrierTick batches the serial scheduler's per-instruction bookkeeping —
// invariant-audit cadence, heartbeat ticks, progress — at a round barrier
// using delta-step accounting, so the cadence follows instruction counts
// (deterministic) rather than wall-clock or worker timing.
func (s *sim) barrierTick(delta int) {
	if delta <= 0 {
		return
	}
	if s.checking {
		if s.checkCtr += delta; s.checkCtr >= checkStride {
			s.checkCtr = 0
			s.auditInvariants()
		}
	}
	if !s.measuring {
		return
	}
	s.stepped += uint64(delta)
	if s.hb != nil && s.stepped-s.ticked >= s.hbEvery {
		s.heartbeatTick()
	}
	if s.progress != nil {
		s.progress.Set(s.stepped)
	}
}
