package cache

import (
	"testing"
	"testing/quick"

	"atcsim/internal/mem"
)

// fakeLower is a scripted next level with fixed latency.
type fakeLower struct {
	latency    int64
	accesses   []mem.Request
	writebacks []mem.Addr
}

func (f *fakeLower) Access(req *mem.Request, cycle int64) Result {
	f.accesses = append(f.accesses, *req)
	if req.Kind == mem.Writeback {
		f.writebacks = append(f.writebacks, req.Addr)
		return Result{Ready: cycle, Src: mem.LvlDRAM}
	}
	return Result{Ready: cycle + f.latency, Src: mem.LvlDRAM}
}

func small(t *testing.T, cfg Config, lower Lower) *Cache {
	t.Helper()
	if cfg.SizeBytes == 0 {
		cfg.SizeBytes = 4 * 1024
	}
	if cfg.Ways == 0 {
		cfg.Ways = 4
	}
	if cfg.Latency == 0 {
		cfg.Latency = 10
	}
	if cfg.Name == "" {
		cfg.Name = "L2"
	}
	cfg.Level = mem.LvlL2
	c, err := New(cfg, lower)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func loadReq(addr mem.Addr) *mem.Request {
	return &mem.Request{Addr: addr, VAddr: addr, IP: 0x400000, Kind: mem.Load}
}

func TestNewValidation(t *testing.T) {
	lower := &fakeLower{latency: 100}
	if _, err := New(Config{SizeBytes: 0, Ways: 4}, lower); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := New(Config{SizeBytes: 3000, Ways: 4, Latency: 1}, lower); err == nil {
		t.Error("non-power-of-two set count accepted")
	}
	if _, err := New(Config{SizeBytes: 4096, Ways: 4, Policy: "nope"}, lower); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := New(Config{SizeBytes: 4096, Ways: 4}, nil); err == nil {
		t.Error("nil lower accepted")
	}
	c := MustNew(Config{Name: "x", SizeBytes: 4096, Ways: 4, Latency: 2}, lower)
	if c.Sets() != 16 || c.Ways() != 4 || c.PolicyName() != "lru" || c.Name() != "x" {
		t.Errorf("geometry: sets=%d ways=%d policy=%s", c.Sets(), c.Ways(), c.PolicyName())
	}
}

func TestMissThenHitLatency(t *testing.T) {
	lower := &fakeLower{latency: 100}
	c := small(t, Config{}, lower)

	res := c.Access(loadReq(0x1000), 0)
	if res.Ready != 10+100 {
		t.Errorf("miss ready = %d, want 110", res.Ready)
	}
	if res.Src != mem.LvlDRAM {
		t.Errorf("miss src = %v", res.Src)
	}
	// Hit after the fill completes.
	res = c.Access(loadReq(0x1000), 200)
	if res.Ready != 210 {
		t.Errorf("hit ready = %d, want 210", res.Ready)
	}
	if res.Src != mem.LvlL2 {
		t.Errorf("hit src = %v", res.Src)
	}
	st := c.Stats()
	if st.Access[mem.ClassNonReplay] != 2 || st.Miss[mem.ClassNonReplay] != 1 {
		t.Errorf("counters = %d/%d", st.Access[mem.ClassNonReplay], st.Miss[mem.ClassNonReplay])
	}
}

func TestMSHRMerge(t *testing.T) {
	lower := &fakeLower{latency: 100}
	c := small(t, Config{}, lower)

	first := c.Access(loadReq(0x2000), 0)
	// A second access before the fill completes merges and sees the same
	// ready cycle — and inherits the original source level.
	second := c.Access(loadReq(0x2000), 5)
	if second.Ready != first.Ready {
		t.Errorf("merge ready = %d, want %d", second.Ready, first.Ready)
	}
	if second.Src != mem.LvlDRAM {
		t.Errorf("merge src = %v, want DRAM", second.Src)
	}
	if got := len(lower.accesses); got != 1 {
		t.Errorf("lower accesses = %d, want 1 (merged)", got)
	}
	if c.Stats().Merges != 1 {
		t.Errorf("merges = %d", c.Stats().Merges)
	}
}

func TestMSHRThrottling(t *testing.T) {
	lower := &fakeLower{latency: 1000}
	c := small(t, Config{MSHRs: 2, SizeBytes: 64 * 1024, Ways: 16}, lower)
	// Two outstanding misses fill the MSHRs.
	r1 := c.Access(loadReq(0x0000), 0)
	c.Access(loadReq(0x4000), 0)
	// The third miss must wait for the earliest completion.
	r3 := c.Access(loadReq(0x8000), 0)
	if r3.Ready <= r1.Ready+999 {
		t.Errorf("third miss ready = %d, want > %d (MSHR stall)", r3.Ready, r1.Ready+999)
	}
}

func TestEvictionDeadAccounting(t *testing.T) {
	lower := &fakeLower{latency: 10}
	// Tiny cache: 1 set x 2 ways.
	c := MustNew(Config{Name: "t", SizeBytes: 128, Ways: 2, Latency: 1, Policy: "lru"}, lower)

	c.Access(loadReq(0*64), 0)   // fill way 0
	c.Access(loadReq(1*64), 100) // fill way 1
	c.Access(loadReq(0*64), 200) // reuse way 0
	c.Access(loadReq(2*64), 300) // evicts way 1 (dead) — LRU victim
	c.Access(loadReq(3*64), 400) // evicts way 0 (reused)
	st := c.Stats()
	if st.Evictions[mem.ClassNonReplay] != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions[mem.ClassNonReplay])
	}
	if st.DeadEvictions[mem.ClassNonReplay] != 1 {
		t.Errorf("dead evictions = %d, want 1", st.DeadEvictions[mem.ClassNonReplay])
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	lower := &fakeLower{latency: 10}
	c := MustNew(Config{Name: "t", SizeBytes: 128, Ways: 2, Latency: 1, Policy: "lru"}, lower)

	store := &mem.Request{Addr: 0, Kind: mem.Store, IP: 1}
	c.Access(store, 0)
	c.Access(loadReq(64), 10)
	// Two more fills evict both blocks; the dirty one must write back.
	c.Access(loadReq(128), 20)
	c.Access(loadReq(192), 30)
	if len(lower.writebacks) != 1 || lower.writebacks[0] != 0 {
		t.Errorf("writebacks = %v, want [0]", lower.writebacks)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writeback counter = %d", c.Stats().Writebacks)
	}
}

func TestWritebackAbsorption(t *testing.T) {
	lower := &fakeLower{latency: 10}
	c := small(t, Config{}, lower)
	// Writeback to an absent line allocates it without fetching below.
	wb := &mem.Request{Addr: 0x3000, Kind: mem.Writeback}
	c.Access(wb, 0)
	if len(lower.accesses) != 0 {
		t.Errorf("writeback fetched from lower: %d accesses", len(lower.accesses))
	}
	if !c.Contains(0x3000) {
		t.Error("writeback line not allocated")
	}
	// A writeback to a present line just sets dirty.
	c.Access(wb, 10)
	st := c.Stats()
	if st.Access[mem.ClassWriteback] != 2 {
		t.Errorf("writeback accesses = %d", st.Access[mem.ClassWriteback])
	}
}

func TestIdealTranslationMode(t *testing.T) {
	lower := &fakeLower{latency: 500}
	c := small(t, Config{IdealTranslations: true}, lower)

	leaf := &mem.Request{Addr: 0x5000, Kind: mem.Translation, Level: 1, Leaf: true, IP: 7}
	res := c.Access(leaf, 0)
	if res.Ready != 10 {
		t.Errorf("ideal translation ready = %d, want hit latency 10", res.Ready)
	}
	// Bandwidth still consumed below.
	if len(lower.accesses) != 1 {
		t.Errorf("ideal miss did not propagate: %d", len(lower.accesses))
	}
	// Upper-level translations are NOT idealized.
	// Lookup (10) + lower latency (500).
	up := &mem.Request{Addr: 0x6000, Kind: mem.Translation, Level: 3, IP: 7}
	if res := c.Access(up, 0); res.Ready != 510 {
		t.Errorf("upper translation ready = %d, want 510", res.Ready)
	}
	// Replays are not idealized in this mode.
	rep := loadReq(0x7000)
	rep.IsReplay = true
	if res := c.Access(rep, 0); res.Ready <= 10 {
		t.Error("replay unexpectedly idealized")
	}
}

func TestIdealReplayMode(t *testing.T) {
	lower := &fakeLower{latency: 500}
	c := small(t, Config{IdealReplays: true}, lower)
	rep := loadReq(0x7000)
	rep.IsReplay = true
	if res := c.Access(rep, 0); res.Ready != 10 {
		t.Errorf("ideal replay ready = %d, want 10", res.Ready)
	}
}

func TestATPTriggersOnLeafHit(t *testing.T) {
	lower := &fakeLower{latency: 100}
	c := small(t, Config{ATP: true}, lower)

	leaf := &mem.Request{Addr: 0x5000, Kind: mem.Translation, Level: 1, Leaf: true, IP: 7, ReplayTarget: 0x9abc0}
	// First access misses: no ATP (ATP fires on hits; the miss case is
	// TEMPO's job at the DRAM controller).
	c.Access(leaf, 0)
	if c.Contains(0x9abc0) {
		t.Fatal("ATP fired on a miss")
	}
	// Hit after fill: ATP prefetches the replay line into this cache.
	c.Access(leaf, 1000)
	if !c.Contains(0x9abc0) {
		t.Fatal("ATP did not prefetch the replay target")
	}
	if c.Stats().PrefIssued != 1 {
		t.Errorf("PrefIssued = %d", c.Stats().PrefIssued)
	}
	// The replay load arrives after the translation has returned through
	// the upper levels (hit latency + core turnaround) and merges with the
	// in-flight ATP prefetch: strictly faster than a fresh miss would be.
	rep := loadReq(0x9abc0)
	rep.IsReplay = true
	res := c.Access(rep, 1040)
	if freshMiss := int64(1040 + 10 + 100); res.Ready >= freshMiss {
		t.Errorf("replay not accelerated: ready = %d, fresh miss would be %d", res.Ready, freshMiss)
	}
	st := c.Stats()
	if st.PrefUseful+st.PrefLate != 1 {
		t.Errorf("prefetch usefulness not recorded: %+v", st)
	}
}

func TestATPDisabledNoPrefetch(t *testing.T) {
	lower := &fakeLower{latency: 100}
	c := small(t, Config{}, lower)
	leaf := &mem.Request{Addr: 0x5000, Kind: mem.Translation, Level: 1, Leaf: true, IP: 7, ReplayTarget: 0x9abc0}
	c.Access(leaf, 0)
	c.Access(leaf, 1000)
	if c.Contains(0x9abc0) {
		t.Error("prefetch issued with ATP disabled")
	}
}

type onePrefetcher struct{ line mem.Addr }

func (p *onePrefetcher) Name() string { return "one" }
func (p *onePrefetcher) Train(req *mem.Request, hit bool, cycle int64, out []Candidate) []Candidate {
	return append(out, Candidate{Line: p.line})
}

func TestPrefetcherWiring(t *testing.T) {
	lower := &fakeLower{latency: 100}
	c := small(t, Config{}, lower)
	pf := &onePrefetcher{line: mem.LineAddr(0x8000)}
	c.AttachPrefetcher(pf)
	if c.Prefetcher() != pf {
		t.Fatal("prefetcher not attached")
	}
	c.Access(loadReq(0x1000), 0)
	if !c.Contains(0x8000) {
		t.Error("prefetch candidate not installed")
	}
	// Translations must NOT train the data prefetcher.
	lower.accesses = nil
	pf.line = mem.LineAddr(0xA000)
	c.Access(&mem.Request{Addr: 0x5000, Kind: mem.Translation, Level: 1, Leaf: true}, 0)
	if c.Contains(0xA000) {
		t.Error("translation access trained the prefetcher")
	}
}

func TestRecallDisabledReturnsNil(t *testing.T) {
	c := small(t, Config{}, &fakeLower{latency: 1})
	if r := c.Recall(mem.ClassTransLeaf); r.Hist != nil || r.Valid() {
		t.Error("histogram present without EnableRecall")
	}
}

func TestDRAMAdapter(t *testing.T) {
	var wrote mem.Addr
	d := DRAMAdapter{
		Read:  func(req *mem.Request, cycle int64) int64 { return cycle + 77 },
		Write: func(addr mem.Addr, cycle int64) { wrote = addr },
	}
	res := d.Access(loadReq(0x40), 10)
	if res.Ready != 87 || res.Src != mem.LvlDRAM {
		t.Errorf("adapter read = %+v", res)
	}
	d.Access(&mem.Request{Addr: 0x80, Kind: mem.Writeback}, 0)
	if wrote != 0x80 {
		t.Errorf("adapter write addr = %#x", wrote)
	}
}

func TestReadyNeverBeforeIssue(t *testing.T) {
	lower := &fakeLower{latency: 50}
	c := small(t, Config{SizeBytes: 8 * 1024, Ways: 8}, lower)
	f := func(addrs []uint16, start uint16) bool {
		cycle := int64(start)
		for _, a := range addrs {
			res := c.Access(loadReq(mem.Addr(a)<<6), cycle)
			if res.Ready < cycle+c.cfg.Latency {
				return false
			}
			cycle = res.Ready
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
