// iter.Pull needs the go1.23 language version while go.mod says go 1.22.
// Raising go.mod is not the fix: the benchmark module (perfbench) pins
// go 1.22, and its build then fails with "go: updates to go.mod needed".
// Without this line, go vet rejects iter.Pull under the module's go1.22.

//go:build go1.23

package system

import (
	"errors"
	"iter"
	"runtime"
	"sync"

	"atcsim/internal/cache"
	"atcsim/internal/mem"
	"atcsim/internal/telemetry"
	"atcsim/internal/trace"
	"atcsim/internal/vm"
	"atcsim/internal/xlat"
)

// parallelWindow is the cycle quantum of one barrier round: every core runs
// until its next dispatch would cross the window end, parking at the
// coordinator whenever it needs the shared LLC/DRAM path. The window bounds
// how far core clocks can drift apart between barriers. The constant is part
// of the timing model for multi-core machines — results are byte-identical
// across SimJobs values for any window, but changing the window changes
// which accesses share a wave — so it is a compile-time constant, not a
// runtime knob.
const parallelWindow = 2048

// poolSafe reports whether the engine may resume cores on a worker pool:
// concurrent cores must touch only core-local state between portal
// crossings. Runs that reach shared structures from inside a core step
// resume every core on the coordinator's goroutine whatever SimJobs is:
//
//   - the sampled request tracer is one sink fed from every level;
//   - mechanisms marked shared (victima probes and fills the LLC inside
//     Translate) — see xlat.CoreLocal;
//   - L1D prefetchers translate through mmu.Known, which walks the page
//     table backed by the shared frame allocator.
//
// The schedule never depends on SimJobs, so this gate cannot change results.
func poolSafe(cfg Config) bool {
	return cfg.Telemetry.TracerOrNil() == nil && xlat.CoreLocal(cfg.Mechanism) &&
		(cfg.L1DPrefetcher == "" || cfg.L1DPrefetcher == "none")
}

// prefault maps every page a core's trace will touch — instruction and data
// — before the run starts. Cores share one frame allocator, so under the
// parallel engine demand-paged first-touch order would depend on worker
// scheduling; pre-faulting each core's footprint in canonical core order
// pins the frame assignment at build time instead. Interior page-table
// frames allocate here too, so a pooled run performs no allocator calls at
// all while cores are concurrent. A repeat Translate of a mapped page
// allocates nothing, so a run of instructions on one code page, or of
// accesses to one data page, translates that page once: the frames come
// out in the same order as translating every instruction would give.
func prefault(pt *vm.PageTable, tr *trace.Trace) error {
	ipPage, dataPage := ^mem.Addr(0), ^mem.Addr(0) // no page number is all ones
	for i := range tr.Insts {
		in := &tr.Insts[i]
		if p := mem.PageNumber(in.IP); p != ipPage {
			if _, err := pt.Translate(in.IP); err != nil {
				return err
			}
			ipPage = p
		}
		if in.Op == trace.OpLoad || in.Op == trace.OpStore {
			if p := mem.PageNumber(in.Addr); p != dataPage {
				if _, err := pt.Translate(in.Addr); err != nil {
					return err
				}
				dataPage = p
			}
		}
	}
	return nil
}

// parEngine runs each core as a coroutine (iter.Pull), created at the
// beginning of each phase and stopped at its end, that steps its core
// through cycle-window rounds; every shared-hierarchy request is resolved
// serially, in canonical core-index order, at coordinator waves. The
// schedule — round windows, wave membership, resolution order — is a pure
// function of config and traces: SimJobs only caps how many cores compute
// concurrently between barriers, so reports are byte-identical for every
// value.
//
// Protocol per round: every core is resumed and steps until its next
// dispatch reaches the window end. A core that needs the shared path parks
// inside its portal by yielding back to whoever resumed it. Once every
// resumed core has parked or finished the window, the coordinator services
// the parked requests in core order (one wave) and resumes exactly those
// cores; the round ends when no core is parked. Wave k+1 only forms after
// every core resumed in wave k has parked again or finished, which is what
// makes membership independent of how resumes are spread over goroutines.
//
// At SimJobs 1 the coordinator resumes cores itself, in core order, so a
// round involves no goroutine hand-off at all. Above that, a per-phase pool
// of jobs goroutines resumes the cores of a wave while the coordinator
// waits for them.
type parEngine struct {
	sim   *sim
	lower cache.Lower // real shared path: the LLC or its queued wrapper
	jobs  int

	// active gates the portals: outside rounds (build, queue drains, stat
	// collection) portal accesses pass straight through on the caller's
	// goroutine.
	active bool

	portals []*sharedPortal
	window  int64           // end cycle of the current round
	wave    []*sharedPortal // scratch: cores resumed by the current wave

	// Per-phase resume pool, nil at SimJobs 1. work carries the cores to
	// resume; a worker answers on done once its core has parked or finished.
	// Both channels hold one slot per core, the most one wave sends.
	work    chan *sharedPortal
	done    chan struct{}
	workers sync.WaitGroup

	lastTotal int // phaseCount sum at the previous barrier

	rounds, waves, sharedReqs, skew uint64
}

// newParEngine wires portals for n cores.
func newParEngine(s *sim, lower cache.Lower, n int) *parEngine {
	jobs := s.cfg.SimJobs
	if jobs == 0 {
		jobs = runtime.NumCPU()
	}
	if jobs < 1 || !poolSafe(s.cfg) {
		jobs = 1
	}
	if jobs > n {
		jobs = n
	}
	e := &parEngine{
		sim:   s,
		lower: lower,
		jobs:  jobs,
		wave:  make([]*sharedPortal, 0, n),
	}
	for i := 0; i < n; i++ {
		e.portals = append(e.portals, &sharedPortal{eng: e})
	}
	return e
}

// portal returns the cache.Lower core's private L2 should sit on.
func (e *parEngine) portal(core int) cache.Lower { return e.portals[core] }

// sharedPortal is the cache.Lower each private L2 points at under the
// parallel engine, and the handle of its core's coroutine. During a round
// it parks the request with the coordinator; outside rounds it is a
// transparent pass-through.
type sharedPortal struct {
	eng *parEngine

	// Per-phase coroutine: next resumes the core until it parks or finishes
	// its window, stop unwinds it, yield (called inside the coroutine)
	// suspends it. panicked holds what a pool worker recovered from next.
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	panicked any

	// Parked-request mailbox: req/cycle/parked are written by the core
	// before it yields, res by the coordinator before it resumes the core.
	// sample carries the core's in-flight traced request while it is parked.
	parked bool
	req    *mem.Request
	cycle  int64
	res    cache.Result
	sample telemetry.Sample
}

// errCoreStopped unwinds a core that is parked in its portal when its phase
// ends early because another core (or the coordinator) panicked.
var errCoreStopped = errors.New("system: parallel core stopped while parked")

// Access implements cache.Lower. Inside a round it parks the request and
// yields; the core continues once the coordinator has serviced the request
// in a wave and resumed it. The core's traced sample is detached while it
// is parked, so cores stepping in the meantime cannot emit into it.
func (p *sharedPortal) Access(req *mem.Request, cycle int64) cache.Result {
	e := p.eng
	if !e.active {
		return e.lower.Access(req, cycle)
	}
	p.req, p.cycle, p.parked = req, cycle, true
	p.sample = e.sim.tracer.Suspend()
	if !p.yield(struct{}{}) {
		panic(errCoreStopped)
	}
	e.sim.tracer.Resume(p.sample)
	return p.res
}

// phase runs every core, one unit each, for target instructions. Cores that
// reach the target keep running — preserving contention — until all are
// done; completion cycles are recorded at the target boundary. Done-ness is
// only observed at round barriers, so the final round always runs to its
// window end and the round/wave schedule stays independent of SimJobs.
//
// A panic raised inside a core step surfaces here, on the caller's
// goroutine, after every coroutine is stopped and the pool joined.
func (e *parEngine) phase(target int) {
	s := e.sim
	e.lastTotal = 0
	e.active = true
	defer e.endPhase()
	for i, p := range e.portals {
		p.next, p.stop = iter.Pull(e.coreLoop(s.cores[i:i+1], p, target))
	}
	if e.jobs > 1 {
		e.work = make(chan *sharedPortal, len(s.cores))
		e.done = make(chan struct{}, len(s.cores))
		e.workers.Add(e.jobs)
		for i := 0; i < e.jobs; i++ {
			go e.worker()
		}
	}
	for !allDone(s.cores) {
		e.runRound()
	}
}

// endPhase joins the resume pool and stops every core coroutine. It runs on
// the normal path and while a core's panic unwinds phase; in both cases no
// core is running, so each coroutine is suspended at its window end or
// parked in its portal, or has already ended by panicking.
func (e *parEngine) endPhase() {
	if e.work != nil {
		close(e.work)
		e.workers.Wait()
		e.work, e.done = nil, nil
	}
	for _, p := range e.portals {
		p.unwind()
	}
	e.active = false
}

// unwind stops the core's coroutine, absorbing the errCoreStopped unwind
// of a parked core; any other panic from the core is re-raised.
func (p *sharedPortal) unwind() {
	defer func() {
		if r := recover(); r != nil && r != errCoreStopped {
			panic(r)
		}
	}()
	p.stop()
}

// resumeRecover resumes the core and records what it panicked with, if it
// did. A panic cannot cross goroutines, so a pool worker hands it back to
// the coordinator to re-raise.
func (p *sharedPortal) resumeRecover() {
	defer func() { p.panicked = recover() }()
	p.next()
}

// coreLoop is a one-core unit's coroutine body: run the unit loop up to the
// round's window end per resume, yielding at each window end until the
// phase stops it.
func (e *parEngine) coreLoop(unit []*coreCtx, p *sharedPortal, target int) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		p.yield = yield
		for {
			e.sim.runUnit(unit, target, e.window)
			if !yield(struct{}{}) {
				return
			}
		}
	}
}

// worker is one resume-pool goroutine: it resumes the cores it is handed
// until the phase closes work.
func (e *parEngine) worker() {
	defer e.workers.Done()
	for p := range e.work {
		p.resumeRecover()
		e.done <- struct{}{}
	}
}

// resume runs the cores of e.wave until each has parked or finished its
// window. A panic inside a core is re-raised on the caller; at SimJobs > 1
// only once every resumed core has come to rest, taking the lowest
// panicking core.
func (e *parEngine) resume() {
	if e.work == nil {
		for _, p := range e.wave {
			p.next()
		}
		return
	}
	for _, p := range e.wave {
		e.work <- p
	}
	for range e.wave {
		<-e.done
	}
	for _, p := range e.wave {
		if r := p.panicked; r != nil {
			panic(r)
		}
	}
}

// runRound executes one cycle window: resume every core with the window
// end, resolve waves until no core is parked, and batch the per-step
// bookkeeping the inline unit loop does at the barrier. Every core ends the
// round with NextDispatch at or past the window end, so the global minimum
// strictly advances and phases terminate.
func (e *parEngine) runRound() {
	s := e.sim
	window := int64(-1)
	for _, c := range s.cores {
		if d := c.core.NextDispatch(); window < 0 || d < window {
			window = d
		}
	}
	e.window = window + parallelWindow

	e.wave = append(e.wave[:0], e.portals...)
	for len(e.wave) > 0 {
		e.resume()
		e.resolveWave()
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

// resolveWave services every parked request against the real shared path
// in ascending core order — the canonical order that makes results
// independent of resume scheduling — and leaves the owners in e.wave for
// the next resume. An empty wave means the round is over and is not
// counted. Each request's traced sample is attached while it is serviced,
// so LLC and DRAM events land in it.
func (e *parEngine) resolveWave() {
	e.wave = e.wave[:0]
	for _, p := range e.portals {
		if !p.parked {
			continue
		}
		p.parked = false
		e.sim.tracer.Resume(p.sample)
		p.res = e.lower.Access(p.req, p.cycle)
		p.sample = e.sim.tracer.Suspend()
		e.sharedReqs++
		e.wave = append(e.wave, p)
	}
	if len(e.wave) > 0 {
		e.waves++
	}
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

// barrierTick does the per-instruction bookkeeping — invariant-audit
// cadence, heartbeat ticks, progress — for delta steps: once per step in
// the inline unit loop, batched at each round barrier under the engine. The
// cadence follows instruction counts (deterministic) rather than
// wall-clock or worker timing.
func (s *sim) barrierTick(delta int) {
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
