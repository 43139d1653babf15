package benchmarks

import (
	"testing"

	"atcsim/internal/cache"
	"atcsim/internal/dram"
	"atcsim/internal/mem"
)

// buildQueuedHierarchy assembles the same three-level hierarchy as
// buildHierarchy with a cache.Queued wrapper interposed at every level, the
// way internal/system wires the "queued" timing engine: each level's lower
// pointer is the next level's wrapper, so fills and writebacks flow through
// the bounded deques.
func buildQueuedHierarchy(b testing.TB) *cache.Queued {
	b.Helper()
	ch := dram.NewController(dram.DefaultConfig())
	llc, err := cache.New(cache.Config{
		Name: "LLC", Level: mem.LvlLLC, SizeBytes: 2 << 20, Ways: 16,
		Latency: 20, Policy: "ship",
	}, cache.DRAMAdapter{Read: ch.Read, Write: ch.Write})
	if err != nil {
		b.Fatal(err)
	}
	qllc := cache.NewQueued(llc, cache.DefaultQueueConfig(mem.LvlLLC))
	l2, err := cache.New(cache.Config{
		Name: "L2", Level: mem.LvlL2, SizeBytes: 512 << 10, Ways: 8,
		Latency: 10, Policy: "drrip",
	}, qllc)
	if err != nil {
		b.Fatal(err)
	}
	ql2 := cache.NewQueued(l2, cache.DefaultQueueConfig(mem.LvlL2))
	l1, err := cache.New(cache.Config{
		Name: "L1D", Level: mem.LvlL1D, SizeBytes: 48 << 10, Ways: 12,
		Latency: 5, Policy: "lru",
	}, ql2)
	if err != nil {
		b.Fatal(err)
	}
	return cache.NewQueued(l1, cache.DefaultQueueConfig(mem.LvlL1D))
}

// BenchmarkQueuedAccessHit measures the steady-state L1 hit through the
// queued engine: catch-up, write-queue scan, read-queue push and the
// per-cycle operate steps until the hit retires.
func BenchmarkQueuedAccessHit(b *testing.B) {
	q := buildQueuedHierarchy(b)
	req := &mem.Request{Addr: 0x1000, Kind: mem.Load, IP: 1}
	q.Access(req, 0)
	q.Drain()
	b.ResetTimer()
	cycle := int64(100)
	for i := 0; i < b.N; i++ {
		q.Access(req, cycle)
		cycle += 10
	}
}

// BenchmarkQueuedAccessMissStream measures the streaming-miss path: every
// access misses all three levels, books DRAM and carries fills (and the
// resulting evictions) back up through the deques.
func BenchmarkQueuedAccessMissStream(b *testing.B) {
	q := buildQueuedHierarchy(b)
	req := &mem.Request{Kind: mem.Load, IP: 2}
	b.ResetTimer()
	cycle := int64(0)
	for i := 0; i < b.N; i++ {
		req.Addr = mem.Addr(i) << 6
		q.Access(req, cycle)
		cycle += 10
	}
}

// TestZeroAllocQueuedAccessHit extends the zero-allocation invariant to the
// queued engine's operate path: once warm, a hit through the full wrapper
// stack (deque push, event-skipping steps, retire) must not touch the heap —
// the rings are preallocated at construction.
func TestZeroAllocQueuedAccessHit(t *testing.T) {
	skipIfInstrumented(t)
	q := buildQueuedHierarchy(t)
	req := &mem.Request{Addr: 0x1000, Kind: mem.Load, IP: 1}
	q.Access(req, 0)
	q.Drain()
	cycle := int64(100)
	allocs := testing.AllocsPerRun(1000, func() {
		q.Access(req, cycle)
		cycle += 10
	})
	if allocs != 0 {
		t.Fatalf("queued cache hit allocates %v objects per access, want 0", allocs)
	}
}
