package cache

import (
	"testing"

	"atcsim/internal/mem"
)

// TestInFlightBlocksNotEvicted verifies the MSHR-fill protection: a block
// whose fill is still outstanding must not be chosen as a victim while
// another way is evictable.
func TestInFlightBlocksNotEvicted(t *testing.T) {
	lower := &fakeLower{latency: 1000}
	// One set, two ways.
	c := MustNew(Config{Name: "t", SizeBytes: 128, Ways: 2, Latency: 1, Policy: "lru"}, lower)

	// Way A: completed fill (old). Way B: in-flight fill.
	c.Access(loadReq(0*64), 0)    // fills, ready at ~1001
	c.Access(loadReq(1*64), 5000) // fills way 1, in flight until ~6001

	// A third miss at cycle 5010 must evict way 0 (complete), NOT the
	// in-flight way 1 — even though way 0 is MRU-ish by LRU stamps after
	// way 1's insert.
	c.Access(loadReq(2*64), 5010)
	if !c.Contains(1 * 64) {
		t.Fatal("in-flight block was evicted")
	}
	if c.Contains(0 * 64) {
		t.Fatal("completed block survived instead of being evicted")
	}
}

func TestPrefetchDroppedOnFullMSHRs(t *testing.T) {
	lower := &fakeLower{latency: 10_000}
	c := MustNew(Config{
		Name: "t", SizeBytes: 64 << 10, Ways: 16, Latency: 1,
		Policy: "lru", MSHRs: 2,
	}, lower)
	// Fill both MSHRs with demand misses.
	c.Access(loadReq(0x0000), 0)
	c.Access(loadReq(0x4000), 0)
	// A prefetch now must be dropped, not queued.
	c.Prefetch(mem.LineAddr(0x8000), 1, false)
	st := c.Stats()
	if st.PrefDropped != 1 {
		t.Errorf("PrefDropped = %d, want 1", st.PrefDropped)
	}
	if st.PrefIssued != 0 {
		t.Errorf("PrefIssued = %d, want 0", st.PrefIssued)
	}
	if c.Contains(0x8000) {
		t.Error("dropped prefetch still filled the cache")
	}
}

func TestTranslationsBypassMSHRs(t *testing.T) {
	lower := &fakeLower{latency: 1000}
	c := MustNew(Config{
		Name: "t", SizeBytes: 64 << 10, Ways: 16, Latency: 1,
		Policy: "lru", MSHRs: 1,
	}, lower)
	// One demand miss occupies the single MSHR.
	c.Access(loadReq(0x0000), 0)
	// A page-walk read is not throttled by the full MSHRs.
	leaf := &mem.Request{Addr: 0x9000, Kind: mem.Translation, Level: 1, Leaf: true}
	res := c.Access(leaf, 10)
	if res.Ready != 10+1+1000 {
		t.Errorf("translation ready = %d, want 1011 (no MSHR stall)", res.Ready)
	}
	// But a second demand miss IS throttled.
	res = c.Access(loadReq(0x4000), 10)
	if res.Ready <= 10+1+1000 {
		t.Errorf("demand miss ready = %d, should wait for the MSHR", res.Ready)
	}
}

func TestAvgLatencyStat(t *testing.T) {
	lower := &fakeLower{latency: 100}
	c := small(t, Config{}, lower)
	c.Access(loadReq(0x1000), 0)    // miss: 110
	c.Access(loadReq(0x1000), 1000) // hit: 10
	st := c.Stats()
	want := float64(110+10) / 2
	if got := st.AvgLatency(mem.ClassNonReplay); got != want {
		t.Errorf("AvgLatency = %v, want %v", got, want)
	}
	if st.AvgLatency(mem.ClassReplay) != 0 {
		t.Error("replay latency non-zero without replay accesses")
	}
}

func TestRecallEvictionDenominator(t *testing.T) {
	lower := &fakeLower{latency: 10}
	c := MustNew(Config{Name: "t", SizeBytes: 128, Ways: 2, Latency: 1, Policy: "lru"}, lower)
	c.EnableRecall()
	leaf := func(addr mem.Addr) *mem.Request {
		return &mem.Request{Addr: addr, Kind: mem.Translation, Level: 1, Leaf: true, IP: 3}
	}
	// Two translations evicted; only one recalled.
	c.Access(leaf(0), 0)
	c.Access(leaf(64), 10)
	c.Access(loadReq(128), 20) // evicts line 0
	c.Access(loadReq(192), 30) // evicts line 64
	c.Access(leaf(0), 40)      // recall of line 0 only; evicts line 128
	r := c.Recall(mem.ClassTransLeaf)
	if r.Evictions != 2 {
		t.Fatalf("recall evictions = %d, want 2", r.Evictions)
	}
	if r.Hist.Total() != 1 {
		t.Fatalf("recall samples = %d, want 1", r.Hist.Total())
	}
	// Only translation and replay blocks are tracked.
	if n := c.Recall(mem.ClassNonReplay).Evictions; n != 0 {
		t.Errorf("non-replay evictions tracked: %d", n)
	}
	c.ResetStats()
	if r := c.Recall(mem.ClassTransLeaf); r.Evictions != 0 || r.Hist.Total() != 0 {
		t.Errorf("after ResetStats: %d evictions, %d samples", r.Evictions, r.Hist.Total())
	}
}

func TestDeadBlockBypassPolicy(t *testing.T) {
	lower := &fakeLower{latency: 100}
	c := MustNew(Config{Name: "t", SizeBytes: 4096, Ways: 4, Latency: 1, Policy: "cbpred"}, lower)
	deadIP := mem.Addr(0x400000)
	// Train the signature dead: fill + conflicting fills in one set.
	for i := 0; i < 80; i++ {
		c.Access(&mem.Request{Addr: mem.Addr(i) * 4096, IP: deadIP, Kind: mem.Load}, int64(i)*1000)
	}
	before := c.Stats().Bypasses
	c.Access(&mem.Request{Addr: 99 * 4096, IP: deadIP, Kind: mem.Load}, 1_000_000)
	if c.Stats().Bypasses <= before {
		t.Fatalf("no bypass recorded (bypasses=%d)", c.Stats().Bypasses)
	}
	if c.Contains(99 * 4096) {
		t.Error("bypassed block was allocated")
	}
}
