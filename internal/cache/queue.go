package cache

import (
	"fmt"

	"atcsim/internal/mem"
)

// queueEntry is one slot of a bounded request deque. Entries are stored by
// value (the request is copied in, never aliased to a caller's scratch) and
// slots are stable for the entry's whole lifetime, so the synchronous issue
// path can hold a pointer to its own entry while the engine steps.
type queueEntry struct {
	req mem.Request
	// line/distant carry prefetch-queue payload (PQ/VAPQ entries have no
	// full request).
	line    mem.Addr
	distant bool
	// enq is the cycle the entry was pushed; it becomes eligible for
	// processing on the following cycle.
	enq int64
	// seq is the engine-wide push sequence number, used by the FIFO-order
	// invariant checker.
	seq uint64
	// done marks a processed read; res is its outcome. The slot stays
	// occupied until res.Ready passes (the entry models the in-flight read,
	// which is what makes rq_full mean something).
	done bool
	res  Result
}

// ring is a bounded FIFO deque of queue entries backed by a fixed circular
// buffer. It never allocates after construction.
type ring struct {
	buf    []queueEntry
	head   int
	n      int
	pushes uint64
	pops   uint64
}

func newRing(capacity int) ring {
	if capacity <= 0 {
		capacity = 1
	}
	return ring{buf: make([]queueEntry, capacity)}
}

func (r *ring) cap() int    { return len(r.buf) }
func (r *ring) len() int    { return r.n }
func (r *ring) full() bool  { return r.n == len(r.buf) }
func (r *ring) empty() bool { return r.n == 0 }

// push claims the slot after the current tail and returns it zeroed, or nil
// when the ring is full.
func (r *ring) push() *queueEntry {
	if r.full() {
		return nil
	}
	i := (r.head + r.n) % len(r.buf)
	r.n++
	r.pushes++
	r.buf[i] = queueEntry{}
	return &r.buf[i]
}

// at returns the i-th entry from the head (0 = oldest).
func (r *ring) at(i int) *queueEntry {
	return &r.buf[(r.head+i)%len(r.buf)]
}

// pop discards the head entry.
func (r *ring) pop() {
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	r.pops++
}

// find reports whether any entry holds the given line address (reads/
// writebacks match on the request address, prefetch entries on the line
// payload).
func (r *ring) find(line mem.Addr) bool {
	for i := 0; i < r.n; i++ {
		e := r.at(i)
		if e.line == line || mem.LineAddr(e.req.Addr) == line {
			return true
		}
	}
	return false
}

// check audits the ring's structural invariants: occupancy within bounds,
// head index in range, and push/pop conservation (no entry lost or
// duplicated).
func (r *ring) check(name string) error {
	if r.n < 0 || r.n > len(r.buf) {
		return fmt.Errorf("%s occupancy %d outside [0,%d]", name, r.n, len(r.buf))
	}
	if r.head < 0 || r.head >= len(r.buf) {
		return fmt.Errorf("%s head %d outside [0,%d)", name, r.head, len(r.buf))
	}
	if r.pushes-r.pops != uint64(r.n) {
		return fmt.Errorf("%s conservation broken: %d pushes, %d pops, %d resident",
			name, r.pushes, r.pops, r.n)
	}
	return nil
}

// QueueConfig sizes one level's request deques and per-cycle ports for the
// queued timing engine (Config.Timing = "queued" at the system level).
type QueueConfig struct {
	// RQ, WQ, PQ and VAPQ are the read, write, prefetch and
	// translation-staging queue capacities.
	RQ   int
	WQ   int
	PQ   int
	VAPQ int
	// MaxRead is the number of read-queue (and, with leftover budget,
	// prefetch-queue) entries processed per cycle; MaxWrite the same for the
	// write queue.
	MaxRead  int
	MaxWrite int
	// VAPQLatency is the staging delay of a translation-triggered (distant)
	// prefetch in the VAPQ before it moves to the PQ — the cycles the
	// hardware spends resolving the prefetch's target.
	VAPQLatency int64
}

// DefaultQueueConfig returns ChampSim-proportioned queue sizes for a
// hierarchy level.
func DefaultQueueConfig(level mem.Level) QueueConfig {
	switch level {
	case mem.LvlL1D:
		return QueueConfig{RQ: 16, WQ: 16, PQ: 8, VAPQ: 8, MaxRead: 2, MaxWrite: 2, VAPQLatency: 2}
	case mem.LvlL2:
		return QueueConfig{RQ: 32, WQ: 32, PQ: 16, VAPQ: 16, MaxRead: 2, MaxWrite: 2, VAPQLatency: 2}
	default:
		return QueueConfig{RQ: 32, WQ: 32, PQ: 32, VAPQ: 32, MaxRead: 1, MaxWrite: 1, VAPQLatency: 2}
	}
}

// withDefaults fills unset fields so hand-built configs (tests) can specify
// only what they constrain.
func (qc QueueConfig) withDefaults() QueueConfig {
	if qc.RQ <= 0 {
		qc.RQ = 16
	}
	if qc.WQ <= 0 {
		qc.WQ = 16
	}
	if qc.PQ <= 0 {
		qc.PQ = 8
	}
	if qc.VAPQ <= 0 {
		qc.VAPQ = 8
	}
	if qc.MaxRead <= 0 {
		qc.MaxRead = 1
	}
	if qc.MaxWrite <= 0 {
		qc.MaxWrite = 1
	}
	if qc.VAPQLatency < 0 {
		qc.VAPQLatency = 0
	}
	return qc
}

// QueueStats counts the queued engine's backpressure and merge events at
// one level. All counters are events, not cycles, except the *Full stall
// counters, which increment once per stalled cycle — the integral of the
// stall, matching ChampSim's RQ_FULL-style accounting.
type QueueStats struct {
	// RQFull counts cycles a read was stalled waiting for a read-queue
	// slot; RQMerged counts reads that arrived while the same line was
	// already in flight in the read queue.
	RQFull   uint64
	RQMerged uint64
	// WQFull counts cycles a writeback was stalled on a full write queue;
	// WQForward counts reads serviced by forwarding from a pending
	// write-queue entry.
	WQFull    uint64
	WQForward uint64
	// PQFull counts prefetches dropped on a full prefetch queue; PQMerged
	// counts prefetches merged with a pending entry for the same line.
	PQFull   uint64
	PQMerged uint64
	// VAPQFull counts translation-triggered prefetches dropped on a full
	// staging queue.
	VAPQFull uint64
	// MSHRFull counts cycles the read-queue head was blocked because every
	// MSHR was occupied.
	MSHRFull uint64
	// Enqueued and Drained count entries accepted into and retired from all
	// four queues; their difference is the current total occupancy.
	Enqueued uint64
	Drained  uint64
}

// Add folds o's counters into s.
func (s *QueueStats) Add(o QueueStats) {
	s.RQFull += o.RQFull
	s.RQMerged += o.RQMerged
	s.WQFull += o.WQFull
	s.WQForward += o.WQForward
	s.PQFull += o.PQFull
	s.PQMerged += o.PQMerged
	s.VAPQFull += o.VAPQFull
	s.MSHRFull += o.MSHRFull
	s.Enqueued += o.Enqueued
	s.Drained += o.Drained
}
