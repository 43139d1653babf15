// Package cpu models the out-of-order core's retirement behaviour: a
// reorder buffer with bounded dispatch and retire bandwidth, and — the
// measurement the paper is built on — attribution of every cycle the ROB
// head is blocked to the class of the blocking instruction, with the stall
// of an STLB-missing load split into its address-translation part and its
// replay-load part (Fig. 1 methodology).
//
// The model is single-pass: instruction i dispatches at
// max(nextDispatchSlot, retireCycle(i-ROBSize)); loads start their memory
// access at dispatch; retirement advances a virtual clock RetireWidth-wide
// in order, jumping forward when the head is incomplete.
package cpu

import (
	"fmt"

	"atcsim/internal/stats"
	"atcsim/internal/telemetry"
)

// stallSpanMin is the shortest ROB-head stall worth a trace span; shorter
// stalls are ubiquitous and would flood the ring buffer.
const stallSpanMin = 16

// StallClass attributes ROB-head stall cycles.
type StallClass uint8

// Stall classes, matching the paper's taxonomy.
const (
	// StallTranslation: head is an STLB-missing load still waiting for its
	// page-table walk.
	StallTranslation StallClass = iota
	// StallReplay: head is an STLB-missing load whose translation is done
	// but whose (replay) data access is still outstanding.
	StallReplay
	// StallNonReplay: head is a load that hit the DTLB/STLB.
	StallNonReplay
	// StallOther: anything else (stores, branches, ALU, ifetch).
	StallOther
	// NumStallClasses is the number of stall classes.
	NumStallClasses
)

// String names the class.
func (s StallClass) String() string {
	switch s {
	case StallTranslation:
		return "translation"
	case StallReplay:
		return "replay"
	case StallNonReplay:
		return "non-replay"
	case StallOther:
		return "other"
	}
	return "unknown"
}

// Config sizes the core (Table I defaults via DefaultConfig).
type Config struct {
	ROBSize           int
	DispatchWidth     int
	RetireWidth       int
	MispredictPenalty int64
	ExecLatency       int64
}

// DefaultConfig matches the paper's simulated core.
func DefaultConfig() Config {
	return Config{
		ROBSize:           352,
		DispatchWidth:     6,
		RetireWidth:       4,
		MispredictPenalty: 15,
		ExecLatency:       1,
	}
}

// Entry is one in-flight instruction from the retirement model's view.
type Entry struct {
	// Complete is the cycle the instruction's result is ready.
	Complete int64
	// IsLoad marks demand loads.
	IsLoad bool
	// STLBMiss marks loads whose translation walked the page table.
	STLBMiss bool
	// TransDone is the cycle the translation finished (valid iff STLBMiss).
	TransDone int64
}

// Stats aggregates retirement activity.
type Stats struct {
	Instructions uint64
	// StallCycles[c] is the total cycles the ROB head was blocked by class c.
	StallCycles [NumStallClasses]uint64
	// Per-event stall histograms (only stalling events are recorded): the
	// translation and replay parts of STLB-missing loads, and the stall of
	// non-replay loads — the three series of Fig. 1.
	TransStall     *stats.Histogram
	ReplayStall    *stats.Histogram
	NonReplayStall *stats.Histogram
	Branches       uint64
	Mispredicts    uint64
}

func newStats() Stats {
	bounds := []uint64{10, 25, 50, 100, 200, 400, 800}
	return Stats{
		TransStall:     stats.NewHistogram(bounds...),
		ReplayStall:    stats.NewHistogram(bounds...),
		NonReplayStall: stats.NewHistogram(bounds...),
	}
}

// Core is the retirement-model state of one hardware thread.
type Core struct {
	cfg Config

	rob   []Entry
	head  int
	tail  int
	count int

	dispatchCycle  int64
	dispatchInSlot int
	retireCycle    int64
	retireInSlot   int

	st Stats

	tr     *telemetry.Tracer
	trCore int
}

// New creates a core; zero-valued config fields fall back to defaults.
func New(cfg Config) (*Core, error) {
	def := DefaultConfig()
	if cfg.ROBSize == 0 {
		cfg.ROBSize = def.ROBSize
	}
	if cfg.DispatchWidth == 0 {
		cfg.DispatchWidth = def.DispatchWidth
	}
	if cfg.RetireWidth == 0 {
		cfg.RetireWidth = def.RetireWidth
	}
	if cfg.MispredictPenalty == 0 {
		cfg.MispredictPenalty = def.MispredictPenalty
	}
	if cfg.ExecLatency == 0 {
		cfg.ExecLatency = def.ExecLatency
	}
	if cfg.ROBSize < 1 || cfg.DispatchWidth < 1 || cfg.RetireWidth < 1 {
		return nil, fmt.Errorf("cpu: invalid config %+v", cfg)
	}
	return &Core{cfg: cfg, rob: make([]Entry, cfg.ROBSize), st: newStats()}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Core {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the effective configuration.
func (c *Core) Config() Config { return c.cfg }

// SetTracer attaches a request-lifecycle tracer (nil disables). The core
// emits unsampled ROB-head stall spans of at least stallSpanMin cycles on
// the given core's stall lane.
func (c *Core) SetTracer(t *telemetry.Tracer, core int) {
	c.tr = t
	c.trCore = core
}

// Stats returns a snapshot of the counters (histograms are shared).
func (c *Core) Stats() Stats { return c.st }

// ResetStats zeroes counters at the end of warmup without disturbing
// pipeline state.
func (c *Core) ResetStats() { c.st = newStats() }

// Cycle returns the current retirement clock — the execution time so far.
func (c *Core) Cycle() int64 {
	if c.retireCycle > c.dispatchCycle {
		return c.retireCycle
	}
	return c.dispatchCycle
}

// ensureSpace frees a ROB slot when full. Dispatch of younger instructions
// legitimately runs behind the retirement clock while the head stalls
// (that is the out-of-order window working); only when the ROB fills does
// the frontend couple back to retirement.
func (c *Core) ensureSpace() {
	if c.count < c.cfg.ROBSize {
		return
	}
	for c.count == c.cfg.ROBSize {
		c.retireOne()
	}
	if c.dispatchCycle < c.retireCycle {
		c.dispatchCycle = c.retireCycle
		c.dispatchInSlot = 0
	}
}

// NextDispatch returns the cycle at which the next instruction dispatches,
// retiring instructions as needed to free a ROB slot. Memory accesses for
// the instruction should be issued at this cycle.
func (c *Core) NextDispatch() int64 {
	c.ensureSpace()
	return c.dispatchCycle
}

// Dispatch inserts the instruction into the ROB and consumes frontend
// bandwidth. Callers must have obtained the dispatch cycle via NextDispatch
// and set e.Complete accordingly.
func (c *Core) Dispatch(e Entry) {
	c.ensureSpace()
	c.rob[c.tail] = e
	c.tail = (c.tail + 1) % c.cfg.ROBSize
	c.count++
	c.st.Instructions++

	c.dispatchInSlot++
	if c.dispatchInSlot >= c.cfg.DispatchWidth {
		c.dispatchInSlot = 0
		c.dispatchCycle++
	}
}

// Mispredict charges a branch misprediction: the frontend refills only
// after the branch resolves plus the penalty.
func (c *Core) Mispredict(resolve int64) {
	c.st.Mispredicts++
	if next := resolve + c.cfg.MispredictPenalty; next > c.dispatchCycle {
		c.dispatchCycle = next
		c.dispatchInSlot = 0
	}
}

// CountBranch records a committed branch.
func (c *Core) CountBranch() { c.st.Branches++ }

// FrontendStall blocks dispatch until the given cycle (instruction-fetch
// miss), without counting a misprediction.
func (c *Core) FrontendStall(until int64) {
	if until > c.dispatchCycle {
		c.dispatchCycle = until
		c.dispatchInSlot = 0
	}
}

// Drain retires everything still in flight and returns the final cycle.
func (c *Core) Drain() int64 {
	for c.count > 0 {
		c.retireOne()
	}
	return c.Cycle()
}

// retireOne retires the ROB head, advancing the retirement clock and
// attributing any head-blocked cycles.
func (c *Core) retireOne() {
	e := &c.rob[c.head]

	if e.Complete > c.retireCycle {
		// The head blocks retirement: attribute the gap.
		stall := e.Complete - c.retireCycle
		switch {
		case e.IsLoad && e.STLBMiss:
			// Split at the translation-completion point.
			transEnd := e.TransDone
			if transEnd > e.Complete {
				transEnd = e.Complete
			}
			transPart := transEnd - c.retireCycle
			if transPart < 0 {
				transPart = 0
			}
			replayPart := stall - transPart
			c.st.StallCycles[StallTranslation] += uint64(transPart)
			c.st.StallCycles[StallReplay] += uint64(replayPart)
			if transPart > 0 {
				c.st.TransStall.Add(uint64(transPart))
			}
			if replayPart > 0 {
				c.st.ReplayStall.Add(uint64(replayPart))
			}
			if c.tr.Enabled() {
				if transPart >= stallSpanMin {
					c.tr.StallSpan(c.trCore, StallTranslation.String(), c.retireCycle, c.retireCycle+transPart)
				}
				if replayPart >= stallSpanMin {
					c.tr.StallSpan(c.trCore, StallReplay.String(), e.Complete-replayPart, e.Complete)
				}
			}
		case e.IsLoad:
			c.st.StallCycles[StallNonReplay] += uint64(stall)
			c.st.NonReplayStall.Add(uint64(stall))
			if c.tr.Enabled() && stall >= stallSpanMin {
				c.tr.StallSpan(c.trCore, StallNonReplay.String(), c.retireCycle, e.Complete)
			}
		default:
			c.st.StallCycles[StallOther] += uint64(stall)
			if c.tr.Enabled() && stall >= stallSpanMin {
				c.tr.StallSpan(c.trCore, StallOther.String(), c.retireCycle, e.Complete)
			}
		}
		c.retireCycle = e.Complete
		c.retireInSlot = 0
	}

	c.head = (c.head + 1) % c.cfg.ROBSize
	c.count--
	c.retireInSlot++
	if c.retireInSlot >= c.cfg.RetireWidth {
		c.retireInSlot = 0
		c.retireCycle++
	}
}

// TotalStalls sums all attributed head-stall cycles.
func (s *Stats) TotalStalls() uint64 {
	var t uint64
	for _, v := range s.StallCycles {
		t += v
	}
	return t
}

// IPC computes instructions per cycle given the final cycle count.
func IPC(instructions uint64, cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(instructions) / float64(cycles)
}
