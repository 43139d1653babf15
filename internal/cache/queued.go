package cache

import (
	"fmt"
	"math"

	"atcsim/internal/mem"
)

// Queued wraps a Cache with ChampSim-style bounded request deques (RQ, WQ,
// PQ, VAPQ) advanced by a per-cycle step(). Cycles in which no step could
// change anything are skipped: before every step the clock jumps to the
// cycle before the next possible event (see nextEvent), and the per-cycle
// stall counters are credited with the skipped cycles, so results are those
// of stepping every cycle. It implements Lower, so a queued
// hierarchy is built by interposing one Queued per level: the inner cache's
// lower pointer is the next level's Queued wrapper, which routes demand
// misses into the lower RQ and evicted dirty lines into the lower WQ.
//
// Semantics relative to the analytic engine:
//
//   - Reads occupy an RQ slot from enqueue until their fill completes, so a
//     burst of overlapping misses genuinely fills the queue (rq_full).
//   - Writebacks land in the WQ and are absorbed at MaxWrite per cycle; a
//     read that matches a pending WQ entry is forwarded without touching
//     the array (wq_forward).
//   - Prefetches issued by the inner cache (ATP, TEMPO, attached
//     prefetchers) are diverted through the pfSink hook into the PQ —
//     translation-triggered distant prefetches stage through the VAPQ
//     first — and merge with pending entries for the same line
//     (pq_merged). Leftover read bandwidth drains the PQ, so demand always
//     wins the port.
//   - A read-queue head that needs a miss is blocked head-of-line while
//     every MSHR is occupied (mshr_full); translation reads travel through
//     the walker's private buffers and bypass the gate, matching the inner
//     cache's MSHR model.
//
// When every queue is drained between operations the inner cache observes
// the same operations in the same order as the analytic engine, only at
// shifted cycles — the lockstep differential harness in internal/validate
// holds the two engines to identical state under exactly that schedule.
//
// Not safe for concurrent use, like the Cache it wraps.
type Queued struct {
	c    *Cache
	qcfg QueueConfig

	rq   ring
	wq   ring
	pq   ring
	vapq ring

	// issued counts the serviced reads at the RQ head. processRQ services
	// strictly in FIFO order, so serviced entries always form a prefix.
	issued int
	// stalled records that the last step found the first unserviced read
	// blocked on saturated MSHRs: only then does nextEvent look for the
	// MSHR release, and an unset flag at worst makes its candidate early.
	stalled bool

	now int64
	seq uint64
	qst QueueStats
}

// NewQueued wraps c with bounded request queues and installs the prefetch
// sink that diverts the inner cache's Prefetch calls into the PQ/VAPQ.
func NewQueued(c *Cache, qcfg QueueConfig) *Queued {
	qcfg = qcfg.withDefaults()
	q := &Queued{
		c:    c,
		qcfg: qcfg,
		rq:   newRing(qcfg.RQ),
		wq:   newRing(qcfg.WQ),
		pq:   newRing(qcfg.PQ),
		vapq: newRing(qcfg.VAPQ),
	}
	c.pfSink = q.enqueuePrefetch
	return q
}

// Inner returns the wrapped cache.
func (q *Queued) Inner() *Cache { return q.c }

// Name returns the wrapped cache's name.
func (q *Queued) Name() string { return q.c.Name() }

// Level returns the wrapped cache's hierarchy level.
func (q *Queued) Level() mem.Level { return q.c.Level() }

// Now returns the engine's current cycle.
func (q *Queued) Now() int64 { return q.now }

// Stats snapshots the queue counters, deriving the conservation totals from
// the rings.
func (q *Queued) Stats() QueueStats {
	st := q.qst
	st.Enqueued = q.rq.pushes + q.wq.pushes + q.pq.pushes + q.vapq.pushes
	st.Drained = q.rq.pops + q.wq.pops + q.pq.pops + q.vapq.pops
	return st
}

// ResetStats zeroes the queue counters (end of warmup). Resident entries
// are not touched; Drain first for a clean epoch boundary.
func (q *Queued) ResetStats() { q.qst = QueueStats{} }

// busy reports whether any queue still holds work to process. Done RQ
// entries waiting only for their fill cycle to pass do not count — they
// retire on their own as time advances.
func (q *Queued) busy() bool {
	return !q.wq.empty() || !q.pq.empty() || !q.vapq.empty() || q.issued < q.rq.len()
}

// nextEvent returns the earliest cycle at which step() could change a queue
// or the inner cache. While the first unserviced read is blocked on
// saturated MSHRs, blockedFrom is the first cycle of that stall (the stall
// lasts until the returned cycle); otherwise it is 0. A candidate may be
// early, which only costs an idle step, but it is never late.
func (q *Queued) nextEvent() (next, blockedFrom int64) {
	next = math.MaxInt64
	if q.issued < q.rq.len() {
		// RQ entries are never enqueued in the future, so the first
		// unserviced read is due on the next cycle unless it is blocked.
		e := q.rq.at(q.issued)
		next = q.now + 1
		if q.stalled && e.req.Kind != mem.Translation && !q.c.Contains(e.req.Addr) {
			if free := q.c.mshrFreeAt(next); free > next {
				next, blockedFrom = free, next
			}
		}
		if blockedFrom == 0 {
			return next, 0
		}
	}
	if q.issued > 0 {
		next = min(next, q.rq.at(0).res.Ready) // retire
	}
	if !q.wq.empty() {
		next = min(next, q.wq.at(0).enq+1)
	}
	if !q.vapq.empty() && !q.pq.full() {
		next = min(next, q.vapq.at(0).enq+q.qcfg.VAPQLatency)
	}
	if !q.pq.empty() {
		next = min(next, q.pq.at(0).enq+1)
	}
	return next, blockedFrom
}

// skip jumps the clock across idle cycles to the cycle before the next
// possible event, never past limit, so the following step() lands at most
// on that event. Skipped cycles in which the RQ head sat blocked on the
// MSHRs are credited to mshr_full; the number of skipped cycles is returned
// so callers stalled on a full RQ or WQ can credit their own counter.
func (q *Queued) skip(limit int64) int64 {
	next, blockedFrom := q.nextEvent()
	to := min(next-1, limit)
	if to <= q.now {
		return 0
	}
	if blockedFrom > 0 && to >= blockedFrom {
		q.qst.MSHRFull += uint64(to - blockedFrom + 1)
	}
	n := to - q.now
	q.now = to
	return n
}

// catchUp advances the engine to cycle: stepping through queued work,
// skipping the idle cycles between events, and fast-forwarding once every
// queue is idle.
func (q *Queued) catchUp(cycle int64) {
	for q.now < cycle {
		if !q.busy() {
			q.now = cycle
			q.retire()
			return
		}
		q.skip(cycle - 1)
		q.step()
	}
}

// Drain steps until every queue is empty, force-retiring in-flight RQ slots
// at the end. Used at epoch boundaries (warmup reset, end of run) and by
// the lockstep differential harness between operations.
func (q *Queued) Drain() {
	for q.busy() {
		q.skip(math.MaxInt64)
		q.step()
	}
	for !q.rq.empty() {
		if e := q.rq.at(0); e.res.Ready > q.now {
			q.now = e.res.Ready
		}
		q.retire()
	}
}

// step advances one cycle: retire completed reads, drain writes, stage
// translation prefetches, process reads, then spend leftover read bandwidth
// on prefetches.
func (q *Queued) step() {
	q.now++
	q.retire()
	q.drainWQ()
	q.stageVAPQ()
	budget := q.processRQ()
	q.processPQ(budget)
}

// retire releases RQ slots whose fills have completed, in FIFO order.
func (q *Queued) retire() {
	for q.issued > 0 && q.rq.at(0).res.Ready <= q.now {
		q.rq.pop()
		q.issued--
	}
}

// drainWQ absorbs up to MaxWrite pending writebacks into the inner cache.
func (q *Queued) drainWQ() {
	for i := 0; i < q.qcfg.MaxWrite && !q.wq.empty(); i++ {
		e := q.wq.at(0)
		if e.enq >= q.now {
			return
		}
		q.c.Access(&e.req, q.now)
		q.wq.pop()
	}
}

// stageVAPQ moves translation-triggered prefetches whose staging latency
// has elapsed from the VAPQ into the PQ. A full PQ blocks the head.
func (q *Queued) stageVAPQ() {
	for !q.vapq.empty() {
		e := q.vapq.at(0)
		if e.enq+q.qcfg.VAPQLatency > q.now {
			return
		}
		slot := q.pq.push()
		if slot == nil {
			return
		}
		q.seq++
		*slot = queueEntry{req: e.req, line: e.line, distant: e.distant, enq: q.now, seq: q.seq}
		q.vapq.pop()
	}
}

// processRQ services up to MaxRead eligible read-queue entries in FIFO
// order and returns the unused read budget. A head that needs a miss while
// the MSHRs are saturated blocks the whole queue for the cycle.
func (q *Queued) processRQ() int {
	budget := q.qcfg.MaxRead
	q.stalled = false
	for ; q.issued < q.rq.len() && budget > 0; budget-- {
		e := q.rq.at(q.issued)
		if e.enq >= q.now {
			break
		}
		if e.req.Kind != mem.Translation && !q.c.Contains(e.req.Addr) && q.c.mshrFull(q.now) {
			q.qst.MSHRFull++
			q.stalled = true
			break
		}
		e.res = q.c.Access(&e.req, q.now)
		e.done = true
		q.issued++
	}
	return budget
}

// processPQ spends leftover read bandwidth issuing queued prefetches.
func (q *Queued) processPQ(budget int) {
	for ; budget > 0 && !q.pq.empty(); budget-- {
		e := q.pq.at(0)
		if e.enq >= q.now {
			return
		}
		q.c.prefetchNow(e.line, q.now, e.distant)
		q.pq.pop()
	}
}

// enqueuePrefetch is the inner cache's pfSink: divert a Prefetch call into
// the PQ (or, for distant translation-triggered prefetches, the VAPQ),
// merging with a pending entry for the same line and dropping on overflow.
func (q *Queued) enqueuePrefetch(line mem.Addr, cycle int64, distant bool) int64 {
	if q.pq.find(line) || q.vapq.find(line) {
		q.qst.PQMerged++
		return cycle
	}
	target := &q.pq
	if distant {
		target = &q.vapq
	}
	slot := target.push()
	if slot == nil {
		if distant {
			q.qst.VAPQFull++
		} else {
			q.qst.PQFull++
		}
		return cycle
	}
	q.seq++
	*slot = queueEntry{
		req:     mem.Request{Addr: line << mem.LineBits, Kind: mem.Prefetch},
		line:    line,
		distant: distant,
		enq:     cycle,
		seq:     q.seq,
	}
	return cycle
}

// Access implements Lower: reads are pushed through the RQ (stalling on a
// full queue), writebacks through the WQ. The call steps the engine until
// the request's outcome is known, so the caller keeps the analytic engine's
// synchronous interface while occupancy, bandwidth and backpressure come
// from the queues.
func (q *Queued) Access(req *mem.Request, cycle int64) Result {
	q.catchUp(cycle)

	if req.Kind == mem.Writeback {
		for q.wq.full() {
			q.qst.WQFull += uint64(q.skip(math.MaxInt64)) + 1
			q.step()
		}
		q.seq++
		slot := q.wq.push()
		*slot = queueEntry{req: *req, line: mem.LineAddr(req.Addr), enq: q.now, seq: q.seq}
		return Result{Ready: q.now + q.c.cfg.Latency, Src: q.c.cfg.Level}
	}

	line := mem.LineAddr(req.Addr)
	if q.wq.find(line) {
		// Forward the youngest store's data without touching the array.
		q.qst.WQForward++
		return Result{Ready: q.now + q.c.cfg.Latency, Src: q.c.cfg.Level}
	}
	if q.rq.find(line) {
		// A read for the same line is already in flight; the inner cache's
		// fill-timestamp merge path coalesces them when this entry issues.
		q.qst.RQMerged++
	}
	for q.rq.full() {
		q.qst.RQFull += uint64(q.skip(math.MaxInt64)) + 1
		q.step()
	}
	q.seq++
	e := q.rq.push()
	*e = queueEntry{req: *req, line: line, enq: q.now, seq: q.seq}
	// The slot pointer stays valid while stepping: step() only pops from
	// the RQ and a pop never moves entries.
	for !e.done {
		q.skip(math.MaxInt64)
		q.step()
	}
	return e.res
}

// CheckInvariants audits the queue structures: bounded occupancy, head
// indices in range, push/pop conservation (no entry lost or duplicated),
// FIFO sequence order, entries not from the future, serviced reads forming
// the RQ head prefix, and the inner cache's own invariants.
func (q *Queued) CheckInvariants() error {
	name := q.c.Name()
	rings := []struct {
		r     *ring
		label string
	}{
		{&q.rq, "rq"}, {&q.wq, "wq"}, {&q.pq, "pq"}, {&q.vapq, "vapq"},
	}
	for _, it := range rings {
		if err := it.r.check(name + " " + it.label); err != nil {
			return err
		}
		var prev uint64
		for i := 0; i < it.r.len(); i++ {
			e := it.r.at(i)
			if i > 0 && e.seq <= prev {
				return fmt.Errorf("%s %s: FIFO order broken at index %d (seq %d after %d)",
					name, it.label, i, e.seq, prev)
			}
			prev = e.seq
			if e.seq > q.seq {
				return fmt.Errorf("%s %s: entry seq %d beyond issued %d", name, it.label, e.seq, q.seq)
			}
			// RQ/WQ entries are never enqueued in the future; PQ/VAPQ
			// entries may carry a prefetcher-issued delay.
			if (it.r == &q.rq || it.r == &q.wq) && e.enq > q.now {
				return fmt.Errorf("%s %s: entry enqueued at %d beyond now %d", name, it.label, e.enq, q.now)
			}
		}
	}
	if q.issued < 0 || q.issued > q.rq.len() {
		return fmt.Errorf("%s rq: %d serviced reads outside [0,%d]", name, q.issued, q.rq.len())
	}
	for i := 0; i < q.rq.len(); i++ {
		if q.rq.at(i).done != (i < q.issued) {
			return fmt.Errorf("%s rq: serviced reads are not the %d-entry head prefix (index %d)", name, q.issued, i)
		}
	}
	st := q.Stats()
	resident := uint64(q.rq.len() + q.wq.len() + q.pq.len() + q.vapq.len())
	if st.Enqueued-st.Drained != resident {
		return fmt.Errorf("%s: queue conservation broken: %d enqueued, %d drained, %d resident",
			name, st.Enqueued, st.Drained, resident)
	}
	return q.c.CheckInvariants()
}
