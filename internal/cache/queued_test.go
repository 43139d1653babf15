package cache

import (
	"testing"

	"atcsim/internal/mem"
)

// queuedSmall builds a small cache wrapped in the queued engine.
func queuedSmall(t *testing.T, cfg Config, qcfg QueueConfig, lower Lower) *Queued {
	t.Helper()
	return NewQueued(small(t, cfg, lower), qcfg)
}

func TestQueuedMissThenHit(t *testing.T) {
	lower := &fakeLower{latency: 100}
	q := queuedSmall(t, Config{}, DefaultQueueConfig(mem.LvlL2), lower)

	res := q.Access(loadReq(0x1000), 0)
	if res.Src != mem.LvlDRAM {
		t.Errorf("miss src = %v, want DRAM", res.Src)
	}
	if res.Ready < 110 {
		t.Errorf("miss ready = %d, want >= analytic 110", res.Ready)
	}
	res = q.Access(loadReq(0x1000), res.Ready+100)
	if res.Src != mem.LvlL2 {
		t.Errorf("hit src = %v, want L2", res.Src)
	}
	st := q.Inner().Stats()
	if st.Access[mem.ClassNonReplay] != 2 || st.Miss[mem.ClassNonReplay] != 1 {
		t.Errorf("counters = %d/%d, want 2/1", st.Access[mem.ClassNonReplay], st.Miss[mem.ClassNonReplay])
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQueuedRQFullBackpressure(t *testing.T) {
	lower := &fakeLower{latency: 100}
	q := queuedSmall(t, Config{SizeBytes: 64 * 1024, Ways: 16},
		QueueConfig{RQ: 2, WQ: 4, PQ: 4, VAPQ: 4, MaxRead: 1, MaxWrite: 1}, lower)

	// Two overlapping misses occupy both RQ slots until their fills land;
	// the third load must stall for a slot.
	// The stall counter is the integral of the wait, one per cycle: the
	// third load waits from cycle 2 until the first slot retires at 111.
	r1 := q.Access(loadReq(0x0000), 0)
	r2 := q.Access(loadReq(0x4000), 1)
	r3 := q.Access(loadReq(0x8000), 2)
	if got := q.Stats().RQFull; got != 109 {
		t.Errorf("rq_full = %d, want 109 stalled cycles", got)
	}
	if r1.Ready != 111 || r2.Ready != 112 || r3.Ready != 222 {
		t.Errorf("ready cycles = %d/%d/%d, want 111/112/222", r1.Ready, r2.Ready, r3.Ready)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQueuedRQMergeAccounting(t *testing.T) {
	lower := &fakeLower{latency: 100}
	q := queuedSmall(t, Config{}, DefaultQueueConfig(mem.LvlL2), lower)

	q.Access(loadReq(0x2000), 0)
	// Second access while the first fill is still in flight (its RQ slot is
	// resident): counted as an RQ merge, coalesced by the inner fill path.
	q.Access(loadReq(0x2000), 5)
	if got := q.Stats().RQMerged; got != 1 {
		t.Errorf("rq_merged = %d, want 1", got)
	}
	if got := len(lower.accesses); got != 1 {
		t.Errorf("lower accesses = %d, want 1 (merged)", got)
	}
	if got := q.Inner().Stats().Merges; got != 1 {
		t.Errorf("inner merges = %d, want 1", got)
	}
}

func TestQueuedWQForwarding(t *testing.T) {
	lower := &fakeLower{latency: 100}
	q := queuedSmall(t, Config{}, DefaultQueueConfig(mem.LvlL2), lower)

	wb := &mem.Request{Addr: 0x3000, Kind: mem.Writeback}
	q.Access(wb, 0)
	// The writeback is still pending in the WQ; a read of the same line is
	// forwarded without touching the array or the lower level.
	res := q.Access(loadReq(0x3000), 0)
	if got := q.Stats().WQForward; got != 1 {
		t.Fatalf("wq_forward = %d, want 1", got)
	}
	if res.Src != mem.LvlL2 {
		t.Errorf("forward src = %v", res.Src)
	}
	if len(lower.accesses) != 0 {
		t.Errorf("forwarded read reached lower level: %d accesses", len(lower.accesses))
	}
	if q.Inner().Contains(0x3000) {
		t.Error("writeback absorbed before its WQ drain")
	}
	q.Drain()
	if !q.Inner().Contains(0x3000) {
		t.Error("writeback not absorbed by WQ drain")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQueuedWQFullStalls(t *testing.T) {
	lower := &fakeLower{latency: 10}
	q := queuedSmall(t, Config{},
		QueueConfig{RQ: 4, WQ: 1, PQ: 4, VAPQ: 4, MaxRead: 1, MaxWrite: 1}, lower)

	// The second writeback waits one cycle for the first to drain.
	a := q.Access(&mem.Request{Addr: 0x100, Kind: mem.Writeback}, 0)
	b := q.Access(&mem.Request{Addr: 0x200, Kind: mem.Writeback}, 0)
	if got := q.Stats().WQFull; got != 1 {
		t.Errorf("wq_full = %d, want 1 stalled cycle", got)
	}
	if a.Ready != 10 || b.Ready != 11 {
		t.Errorf("ready cycles = %d/%d, want 10/11", a.Ready, b.Ready)
	}
	q.Drain()
	if !q.Inner().Contains(0x100) || !q.Inner().Contains(0x200) {
		t.Error("writebacks lost under WQ backpressure")
	}
}

func TestQueuedPQMergeOnDuplicate(t *testing.T) {
	lower := &fakeLower{latency: 100}
	q := queuedSmall(t, Config{}, DefaultQueueConfig(mem.LvlL2), lower)
	c := q.Inner()

	line := mem.LineAddr(0x8000)
	c.Prefetch(line, 0, false)
	c.Prefetch(line, 0, false) // duplicate while the first is still queued
	if got := q.Stats().PQMerged; got != 1 {
		t.Fatalf("pq_merged = %d, want 1", got)
	}
	q.Drain()
	if !c.Contains(0x8000) {
		t.Error("queued prefetch never installed")
	}
	if got := c.Stats().PrefIssued; got != 1 {
		t.Errorf("PrefIssued = %d, want 1 (merged duplicate must not issue)", got)
	}
}

func TestQueuedPQOverflowDrops(t *testing.T) {
	lower := &fakeLower{latency: 100}
	q := queuedSmall(t, Config{},
		QueueConfig{RQ: 4, WQ: 4, PQ: 1, VAPQ: 1, MaxRead: 1, MaxWrite: 1}, lower)
	c := q.Inner()

	c.Prefetch(mem.LineAddr(0x1000), 0, false)
	c.Prefetch(mem.LineAddr(0x2000), 0, false)
	if got := q.Stats().PQFull; got != 1 {
		t.Errorf("pq_full = %d, want 1", got)
	}
	c.Prefetch(mem.LineAddr(0x3000), 0, true)
	c.Prefetch(mem.LineAddr(0x4000), 0, true)
	if got := q.Stats().VAPQFull; got != 1 {
		t.Errorf("vapq_full = %d, want 1", got)
	}
	q.Drain()
	if c.Contains(0x2000) || c.Contains(0x4000) {
		t.Error("dropped prefetch was installed")
	}
}

func TestQueuedVAPQStaging(t *testing.T) {
	lower := &fakeLower{latency: 100}
	qcfg := DefaultQueueConfig(mem.LvlLLC)
	q := queuedSmall(t, Config{}, qcfg, lower)
	c := q.Inner()

	// A distant (translation-triggered) prefetch stages through the VAPQ.
	c.Prefetch(mem.LineAddr(0x9000), 0, true)
	if q.vapq.len() != 1 || q.pq.len() != 0 {
		t.Fatalf("distant prefetch not staged: vapq=%d pq=%d", q.vapq.len(), q.pq.len())
	}
	q.Drain()
	if !c.Contains(0x9000) {
		t.Error("distant prefetch never installed")
	}
	if got := c.Stats().PrefIssued; got != 1 {
		t.Errorf("PrefIssued = %d, want 1", got)
	}
}

func TestQueuedPrefetchHitDetectedAtDrain(t *testing.T) {
	lower := &fakeLower{latency: 100}
	q := queuedSmall(t, Config{}, DefaultQueueConfig(mem.LvlL2), lower)
	c := q.Inner()

	q.Access(loadReq(0x5000), 0)
	// Prefetching an already-present line is detected when the PQ entry
	// issues: no fill, no PrefIssued, exactly as the analytic present-check.
	c.Prefetch(mem.LineAddr(0x5000), q.Now(), false)
	q.Drain()
	if got := c.Stats().PrefIssued; got != 0 {
		t.Errorf("PrefIssued = %d, want 0 for a present line", got)
	}
}

func TestQueuedMSHRFullBlocksHead(t *testing.T) {
	lower := &fakeLower{latency: 100}
	q := queuedSmall(t, Config{MSHRs: 1, SizeBytes: 64 * 1024, Ways: 16},
		DefaultQueueConfig(mem.LvlL2), lower)

	r1 := q.Access(loadReq(0x0000), 0)
	// The only MSHR holds the first fill; the second miss is blocked
	// head-of-line until it releases.
	r2 := q.Access(loadReq(0x4000), 1)
	if got := q.Stats().MSHRFull; got != 109 {
		t.Errorf("mshr_full = %d, want 109 blocked cycles", got)
	}
	if r1.Ready != 111 || r2.Ready != 221 {
		t.Errorf("ready cycles = %d/%d, want 111/221 (second miss issues at the MSHR release)", r1.Ready, r2.Ready)
	}
}

func TestQueuedTranslationBypassesMSHRGate(t *testing.T) {
	lower := &fakeLower{latency: 100}
	q := queuedSmall(t, Config{MSHRs: 1, SizeBytes: 64 * 1024, Ways: 16},
		DefaultQueueConfig(mem.LvlL2), lower)

	r1 := q.Access(loadReq(0x0000), 0)
	// Walker reads travel through the PTW's private buffers: not throttled
	// by the saturated demand MSHRs.
	tr := &mem.Request{Addr: 0x4000, Kind: mem.Translation, Level: 1, Leaf: true}
	r2 := q.Access(tr, 1)
	if got := q.Stats().MSHRFull; got != 0 {
		t.Errorf("mshr_full = %d, want 0 for a translation read", got)
	}
	if r2.Ready >= r1.Ready+100 {
		t.Errorf("translation ready = %d, throttled by demand MSHRs (first fill %d)", r2.Ready, r1.Ready)
	}
}

func TestQueuedLowerStallPropagates(t *testing.T) {
	dram := &fakeLower{latency: 200}
	l2 := MustNew(Config{Name: "l2", Level: mem.LvlL2, SizeBytes: 64 * 1024, Ways: 16,
		Latency: 10, MSHRs: 8}, dram)
	ql2 := NewQueued(l2, QueueConfig{RQ: 1, WQ: 4, PQ: 4, VAPQ: 4, MaxRead: 1, MaxWrite: 1})
	l1 := MustNew(Config{Name: "l1", Level: mem.LvlL1D, SizeBytes: 1024, Ways: 2,
		Latency: 2, MSHRs: 8}, ql2)
	ql1 := NewQueued(l1, DefaultQueueConfig(mem.LvlL1D))

	// Both loads miss all the way down; the single L2 RQ slot is held by the
	// first fill, so the second upper-level miss is backpressured.
	rA := ql1.Access(loadReq(0x0000), 0)
	rB := ql1.Access(loadReq(0x10000), 1)
	if got := ql2.Stats().RQFull; got != 210 {
		t.Errorf("lower rq_full = %d, want 210 stalled cycles", got)
	}
	if rA.Ready != 214 || rB.Ready != 425 {
		t.Errorf("ready cycles = %d/%d, want 214/425 (second miss delayed past the first fill)", rA.Ready, rB.Ready)
	}
	for _, q := range []*Queued{ql1, ql2} {
		if err := q.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueuedEvictionWritebackEntersLowerWQ(t *testing.T) {
	dram := &fakeLower{latency: 50}
	l2 := MustNew(Config{Name: "l2", Level: mem.LvlL2, SizeBytes: 64 * 1024, Ways: 16,
		Latency: 10, MSHRs: 8}, dram)
	ql2 := NewQueued(l2, DefaultQueueConfig(mem.LvlL2))
	// Tiny L1: 1 set x 2 ways, so stores are evicted quickly.
	l1 := MustNew(Config{Name: "l1", Level: mem.LvlL1D, SizeBytes: 128, Ways: 2,
		Latency: 2, MSHRs: 8}, ql2)
	ql1 := NewQueued(l1, DefaultQueueConfig(mem.LvlL1D))

	cycle := int64(0)
	for i := 0; i < 4; i++ {
		st := &mem.Request{Addr: mem.Addr(i * 64), Kind: mem.Store, IP: 1}
		cycle = ql1.Access(st, cycle).Ready + 1
	}
	ql1.Drain()
	ql2.Drain()
	if got := l1.Stats().Writebacks; got != 2 {
		t.Fatalf("l1 writebacks = %d, want 2", got)
	}
	// The evicted dirty lines must land in L2 via its write queue, not leak.
	if !l2.Contains(0x00) || !l2.Contains(0x40) {
		t.Error("evicted dirty lines not absorbed by lower level")
	}
	if got := l2.Stats().Access[mem.ClassWriteback]; got != 2 {
		t.Errorf("l2 writeback accesses = %d, want 2", got)
	}
}

func TestQueuedDrainLeavesNothingResident(t *testing.T) {
	lower := &fakeLower{latency: 100}
	q := queuedSmall(t, Config{ATP: true}, DefaultQueueConfig(mem.LvlL2), lower)

	leaf := &mem.Request{Addr: 0x5000, Kind: mem.Translation, Level: 1, Leaf: true, ReplayTarget: 0x9abc0}
	q.Access(leaf, 0)
	q.Access(leaf, 1000) // leaf hit fires ATP into the VAPQ
	q.Access(&mem.Request{Addr: 0x600, Kind: mem.Writeback}, 1001)
	q.Drain()
	if q.busy() {
		t.Fatal("busy after Drain")
	}
	if q.rq.len()+q.wq.len()+q.pq.len()+q.vapq.len() != 0 {
		t.Fatalf("entries resident after Drain: rq=%d wq=%d pq=%d vapq=%d",
			q.rq.len(), q.wq.len(), q.pq.len(), q.vapq.len())
	}
	if !q.Inner().Contains(0x9abc0) {
		t.Error("ATP prefetch not installed after Drain")
	}
	st := q.Stats()
	if st.Enqueued != st.Drained {
		t.Errorf("conservation after Drain: enqueued %d, drained %d", st.Enqueued, st.Drained)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQueuedResetStats(t *testing.T) {
	lower := &fakeLower{latency: 100}
	q := queuedSmall(t, Config{},
		QueueConfig{RQ: 1, WQ: 4, PQ: 4, VAPQ: 4, MaxRead: 1, MaxWrite: 1}, lower)
	q.Access(loadReq(0x0000), 0)
	q.Access(loadReq(0x4000), 1) // stalls on the single RQ slot
	if q.Stats().RQFull == 0 {
		t.Fatal("setup produced no rq_full")
	}
	q.Drain()
	q.ResetStats()
	st := q.Stats()
	if st.RQFull != 0 || st.MSHRFull != 0 || st.WQForward != 0 {
		t.Errorf("counters survive ResetStats: %+v", st)
	}
}

// TestQueuedSkipsIdleGaps stages work 2^40 cycles ahead. An engine that
// stepped through every cycle would not finish this test; this one must
// jump straight to each event.
func TestQueuedSkipsIdleGaps(t *testing.T) {
	const gap = int64(1) << 40
	lower := &fakeLower{latency: 100}
	qcfg := DefaultQueueConfig(mem.LvlLLC)
	q := queuedSmall(t, Config{}, qcfg, lower)
	c := q.Inner()

	// Drain across the gap: the distant prefetch stages through the VAPQ
	// and installs, exactly at its staging cycle plus the PQ issue cycle.
	c.Prefetch(mem.LineAddr(0x9000), gap, true)
	q.Drain()
	if !c.Contains(0x9000) {
		t.Fatal("distant prefetch never installed")
	}
	if want := gap + qcfg.VAPQLatency + 1; q.Now() != want {
		t.Errorf("drained at cycle %d, want %d", q.Now(), want)
	}

	// catchUp across the gap with work still queued beyond it: the engine
	// stops at the target without issuing the later prefetch.
	far := q.Now() + 2*gap
	c.Prefetch(mem.LineAddr(0xa000), far, true)
	q.catchUp(q.Now() + gap)
	if want := far - gap; q.Now() != want {
		t.Errorf("catchUp stopped at cycle %d, want %d", q.Now(), want)
	}
	if c.Contains(0xa000) || q.vapq.len() != 1 {
		t.Error("prefetch staged for a later cycle issued early")
	}

	// A demand read behind the same gap is serviced on its own cycle.
	res := q.Access(loadReq(0xb000), far+10)
	if res.Ready != far+10+1+c.cfg.Latency+100 {
		t.Errorf("read after the gap ready at %d, want %d", res.Ready, far+10+1+c.cfg.Latency+100)
	}
	q.Drain()
	if !c.Contains(0xa000) {
		t.Error("second distant prefetch never installed")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
