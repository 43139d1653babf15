// Package dram models a DDR5-like memory channel with banks, a row buffer
// per bank and a shared data bus, in CPU-cycle units. One channel serves four
// cores (Table I of the paper).
//
// Requests reach the channel in program order per core but not in global
// time order (writebacks are posted at fill times in the future, prefetches
// carry issue delays, and SMT/multi-core peers run on slightly different
// clocks). Contention is therefore modelled with order-insensitive slot
// booking: the data bus and each bank expose bounded service capacity per
// time bucket, and a request books the first bucket at or after its arrival
// with spare capacity. A future-timed request can never delay an
// earlier-timed one — the failure mode of naive next-free-time bookkeeping.
//
// The controller also implements the TEMPO hook: when a leaf-level
// page-table-entry read arrives carrying a replay target, the controller
// immediately schedules a read of the replay data line, hiding one round
// trip (Bhattacharjee, ASPLOS'17, as used by the paper's final
// configuration).
package dram

import (
	"atcsim/internal/mem"
	"atcsim/internal/stats"
	"atcsim/internal/telemetry"
)

// Config holds the channel timing and geometry parameters in CPU cycles
// (4 GHz core, DDR5-6400: one 64B burst occupies BL8/2 = 4 memory-clock
// cycles = 1.25 ns = 5 CPU cycles).
type Config struct {
	Channels    int   // independent channels (address-interleaved by line)
	Banks       int   // banks per channel
	RowBits     int   // log2 of row size in bytes (per-bank row-buffer reach)
	TRowHit     int64 // CAS-only latency: row already open
	TRowClosed  int64 // RCD+CAS: bank idle, row must be activated
	TRowMiss    int64 // RP+RCD+CAS: conflicting row open
	TBurst      int64 // data-bus occupancy per 64B line
	TController int64 // fixed controller/queueing overhead per request
}

// DefaultConfig returns DDR5-6400-flavoured timings for a 4 GHz core.
func DefaultConfig() Config {
	return Config{
		Channels:    1,
		Banks:       32,
		RowBits:     13, // 8KB row buffer
		TRowHit:     56,
		TRowClosed:  112,
		TRowMiss:    168,
		TBurst:      5,
		TController: 20,
	}
}

// Stats aggregates channel activity.
type Stats struct {
	Reads  uint64
	Writes uint64
	// ReadLatencySum/ReadLatencyMax track request-to-data delays.
	ReadLatencySum uint64
	ReadLatencyMax uint64
	// RowHits, RowClosed and RowMisses count the row-buffer outcome of
	// every access (reads and writebacks): an open-row hit, a closed
	// (precharged) bank, a conflict with another open row. They sum to
	// Reads + Writes.
	RowHits     uint64
	RowClosed   uint64
	RowMisses   uint64
	TEMPOIssued uint64
	BusyCycles  uint64 // data-bus occupancy booked
}

// AvgReadLatency returns the mean observed read latency.
func (s *Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadLatencySum) / float64(s.Reads)
}

// RowHitRate returns the share of row outcomes — one per access, read or
// writeback — that found their row open, or 0 before any access.
func (s *Stats) RowHitRate() float64 {
	return stats.Ratio(s.RowHits, s.RowHits+s.RowClosed+s.RowMisses)
}

// slotter books bounded service capacity per time bucket, insensitive to
// arrival order. Buckets are 2^bucketBits cycles wide and admit cap
// operations each.
//
// Bookings live in a fixed ring covering a 2^slotterWindowBits-cycle window
// ending at the youngest booked bucket, replacing an earlier map keyed by
// bucket id: the map was the channel's hottest allocation-and-hash site, and
// all traffic a channel ever sees clusters within a few thousand cycles (the
// furthest-future booking is a writeback posted at fill time), far inside
// the window. Bookings that fall behind the window are treated as free and
// not recorded, which matches the map version's pruning of ancient buckets.
type slotter struct {
	bucketBits uint
	cap        int32
	used       []int32 // ring; bucket b lives at used[b&mask]
	mask       int64
	base       int64 // lowest tracked bucket id; window is [base, base+len)
}

// slotterWindowBits sets the tracked window in cycles (2^17 ≈ 33 µs at
// 4 GHz). It strictly covers the old map implementation's prune horizon
// (2^16 cycles behind the youngest booking), so any bucket the map would
// still remember has an exact count here.
const slotterWindowBits = 17

func newSlotter(bucketBits uint, cap int) *slotter {
	if cap < 1 {
		cap = 1
	}
	window := int64(1) << (slotterWindowBits - bucketBits)
	if window < 64 {
		window = 64
	}
	return &slotter{
		bucketBits: bucketBits,
		cap:        int32(cap),
		used:       make([]int32, window),
		mask:       window - 1,
	}
}

// book reserves one service slot at or after cycle `at` and returns the
// cycle service can begin.
func (s *slotter) book(at int64) int64 {
	if at < 0 {
		at = 0
	}
	b := at >> s.bucketBits
	if b >= s.base {
		window := int64(len(s.used))
		for {
			if b >= s.base+window {
				s.advance(b)
			}
			if s.used[b&s.mask] < s.cap {
				break
			}
			b++
		}
		s.used[b&s.mask]++
	}
	start := b << s.bucketBits
	if start < at {
		start = at
	}
	return start
}

// advance slides the window forward so bucket b is its youngest slot,
// zeroing the buckets that fall out.
func (s *slotter) advance(b int64) {
	window := int64(len(s.used))
	newBase := b - window + 1
	if newBase-s.base >= window {
		// The jump vacates the whole window.
		for i := range s.used {
			s.used[i] = 0
		}
	} else {
		for nb := s.base + window; nb <= b; nb++ {
			s.used[nb&s.mask] = 0
		}
	}
	s.base = newBase
}

type bank struct {
	row     int64 // open row id; -1 when closed
	service *slotter
}

// Channel is one DRAM channel. It is not safe for concurrent use; the
// simulator is single-threaded by design (deterministic).
type Channel struct {
	cfg   Config
	banks []bank
	bus   *slotter
	stats Stats
	tr    *telemetry.Tracer

	// TEMPO, when non-nil, is invoked for every leaf-translation read that
	// carries a replay target; the callback receives the replay line address
	// and the cycle at which the controller can issue its read (the cycle
	// the PTE data is available at the controller). The system wires this to
	// an LLC prefetch fill.
	TEMPO func(line mem.Addr, cycle int64)
}

// New creates a channel with the given configuration.
func New(cfg Config) *Channel {
	if cfg.Banks <= 0 {
		cfg = DefaultConfig()
	}
	cfg.Channels = 1 // a Channel is one channel; use NewController for more
	ch := &Channel{cfg: cfg, banks: make([]bank, cfg.Banks)}
	// Bus: one burst per TBurst cycles → bucket of 32 cycles admits
	// 32/TBurst bursts.
	ch.bus = newSlotter(5, int(32/cfg.TBurst))
	for i := range ch.banks {
		ch.banks[i].row = -1
		// Bank: roughly one access per average service time; 256-cycle
		// buckets with capacity 4 ≈ one access per 64 cycles.
		ch.banks[i].service = newSlotter(8, 4)
	}
	return ch
}

// SetTracer attaches a request-lifecycle tracer (nil disables): bank/bus
// service of sampled requests becomes spans on the DRAM lane.
func (c *Channel) SetTracer(t *telemetry.Tracer) { c.tr = t }

// Stats returns a copy of the accumulated statistics.
func (c *Channel) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics (end of warmup) without disturbing
// timing state.
func (c *Channel) ResetStats() { c.stats = Stats{} }

// bankOf maps a line address to a bank. Column bits (the line index within
// a row) sit below the bank bits so that consecutive lines stay in one row;
// the row id is XOR-folded in so that large strides still spread across
// banks (permutation-based interleaving).
func (c *Channel) bankOf(line mem.Addr) int {
	rowIdx := uint64(line) >> uint(c.cfg.RowBits-mem.LineBits)
	return int((rowIdx ^ rowIdx>>8) % uint64(len(c.banks)))
}

// rowOf maps a line address to its row id within the bank.
func (c *Channel) rowOf(line mem.Addr) int64 {
	return int64(line >> uint(c.cfg.RowBits-mem.LineBits))
}

// Read services a read for the line containing req.Addr issued at the given
// cycle and returns the cycle the data has been delivered. It also fires
// the TEMPO hook for leaf translations when enabled.
func (c *Channel) Read(req *mem.Request, cycle int64) int64 {
	done := c.access(mem.LineAddr(req.Addr), cycle, req.Core)
	c.stats.Reads++
	lat := uint64(done - cycle)
	c.stats.ReadLatencySum += lat
	if lat > c.stats.ReadLatencyMax {
		c.stats.ReadLatencyMax = lat
	}
	if c.TEMPO != nil && req.IsLeaf() && req.ReplayTarget != 0 {
		c.stats.TEMPOIssued++
		if c.tr.Active() {
			c.tr.SpanOn(req.Core, "dram", "tempo-issue", telemetry.LaneDRAM, done, done,
				telemetry.IArg("line", int64(mem.LineAddr(req.ReplayTarget))))
		}
		c.TEMPO(mem.LineAddr(req.ReplayTarget), done)
	}
	return done
}

// Write services a writeback for the line containing addr. Writes are
// posted: the caller does not wait, but bank and bus capacity is consumed.
func (c *Channel) Write(addr mem.Addr, cycle int64) {
	c.access(mem.LineAddr(addr), cycle, 0)
	c.stats.Writes++
}

func (c *Channel) access(line mem.Addr, cycle int64, core int) int64 {
	bankIdx := c.bankOf(line)
	b := &c.banks[bankIdx]
	row := c.rowOf(line)

	start := b.service.book(cycle + c.cfg.TController)

	var lat int64
	var outcome string
	switch {
	case b.row == row:
		lat = c.cfg.TRowHit
		c.stats.RowHits++
		outcome = "row-hit"
	case b.row == -1:
		lat = c.cfg.TRowClosed
		c.stats.RowClosed++
		outcome = "row-closed"
	default:
		lat = c.cfg.TRowMiss
		c.stats.RowMisses++
		outcome = "row-miss"
	}
	b.row = row

	dataAt := c.bus.book(start + lat)
	c.stats.BusyCycles += uint64(c.cfg.TBurst)
	done := dataAt + c.cfg.TBurst
	if c.tr.Active() {
		c.tr.SpanOn(core, "dram", "bank", telemetry.LaneDRAM, cycle, done,
			telemetry.IArg("bank", int64(bankIdx)),
			telemetry.SArg("row", outcome),
			telemetry.IArg("bus_slot", dataAt))
	}
	return done
}

// MinLatency returns the best-case read latency (row hit, idle bus), useful
// for tests and for sizing prefetch lead times.
func (c *Channel) MinLatency() int64 {
	return c.cfg.TController + c.cfg.TRowHit + c.cfg.TBurst
}

// Controller fans requests out over one or more address-interleaved
// channels (Table I: one channel per four cores). Lines interleave across
// channels on bits just above the row bits so that a single stream spreads
// without splitting rows.
type Controller struct {
	channels []*Channel
	rowBits  int
}

// NewController builds cfg.Channels channels (minimum one).
func NewController(cfg Config) *Controller {
	if cfg.Banks <= 0 {
		cfg = DefaultConfig()
	}
	n := cfg.Channels
	if n < 1 {
		n = 1
	}
	ctl := &Controller{rowBits: cfg.RowBits}
	for i := 0; i < n; i++ {
		ctl.channels = append(ctl.channels, New(cfg))
	}
	return ctl
}

// Channels returns the number of channels.
func (ctl *Controller) Channels() int { return len(ctl.channels) }

func (ctl *Controller) channelOf(addr mem.Addr) *Channel {
	if len(ctl.channels) == 1 {
		return ctl.channels[0]
	}
	row := uint64(addr) >> uint(ctl.rowBits)
	return ctl.channels[row%uint64(len(ctl.channels))]
}

// Read routes a read to its channel.
func (ctl *Controller) Read(req *mem.Request, cycle int64) int64 {
	return ctl.channelOf(req.Addr).Read(req, cycle)
}

// Write routes a posted write to its channel.
func (ctl *Controller) Write(addr mem.Addr, cycle int64) {
	ctl.channelOf(addr).Write(addr, cycle)
}

// SetTEMPO installs the TEMPO hook on every channel.
func (ctl *Controller) SetTEMPO(f func(line mem.Addr, cycle int64)) {
	for _, ch := range ctl.channels {
		ch.TEMPO = f
	}
}

// SetTracer attaches a request-lifecycle tracer to every channel.
func (ctl *Controller) SetTracer(t *telemetry.Tracer) {
	for _, ch := range ctl.channels {
		ch.SetTracer(t)
	}
}

// Stats sums the statistics over all channels.
func (ctl *Controller) Stats() Stats {
	var out Stats
	for _, ch := range ctl.channels {
		st := ch.Stats()
		out.Reads += st.Reads
		out.Writes += st.Writes
		out.ReadLatencySum += st.ReadLatencySum
		if st.ReadLatencyMax > out.ReadLatencyMax {
			out.ReadLatencyMax = st.ReadLatencyMax
		}
		out.RowHits += st.RowHits
		out.RowClosed += st.RowClosed
		out.RowMisses += st.RowMisses
		out.TEMPOIssued += st.TEMPOIssued
		out.BusyCycles += st.BusyCycles
	}
	return out
}

// ResetStats zeroes every channel's statistics.
func (ctl *Controller) ResetStats() {
	for _, ch := range ctl.channels {
		ch.ResetStats()
	}
}
