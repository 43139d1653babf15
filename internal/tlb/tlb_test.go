package tlb

import (
	"testing"
	"testing/quick"

	"atcsim/internal/mem"
)

func page(n int) mem.Addr { return mem.Addr(n) << mem.PageBits }

func TestGeometryValidation(t *testing.T) {
	if _, err := New(Config{Entries: 0, Ways: 4}); err == nil {
		t.Error("zero entries accepted")
	}
	if _, err := New(Config{Entries: 10, Ways: 4}); err == nil {
		t.Error("entries not divisible by ways accepted")
	}
	if _, err := New(Config{Entries: 24, Ways: 4}); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	tl := MustNew(Config{Name: "dtlb", Entries: 64, Ways: 4, Latency: 1})
	if tl.Name() != "dtlb" || tl.Latency() != 1 || tl.Entries() != 64 {
		t.Error("accessors wrong")
	}
}

func TestLookupInsert(t *testing.T) {
	tl := MustNew(Config{Entries: 64, Ways: 4})
	va := page(100) + 123
	if _, hit := tl.Lookup(va); hit {
		t.Fatal("hit in empty TLB")
	}
	tl.Insert(va, 0xABC000)
	frame, hit := tl.Lookup(va)
	if !hit || frame != 0xABC000 {
		t.Fatalf("lookup = %#x,%v", frame, hit)
	}
	// A different offset in the same page hits too.
	if _, hit := tl.Lookup(page(100) + 4000); !hit {
		t.Error("same-page lookup missed")
	}
	// A different page misses.
	if _, hit := tl.Lookup(page(101)); hit {
		t.Error("different page hit")
	}
	st := tl.Stats()
	if st.Accesses != 4 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// 4 entries, 4 ways: one set.
	tl := MustNew(Config{Entries: 4, Ways: 4})
	for i := 0; i < 4; i++ {
		tl.Insert(page(i), mem.Addr(i)<<mem.PageBits)
	}
	// Touch page 0 so page 1 is LRU.
	tl.Lookup(page(0))
	tl.Insert(page(9), 0x9000)
	if _, hit := tl.Lookup(page(1)); hit {
		t.Error("LRU entry survived eviction")
	}
	if _, hit := tl.Lookup(page(0)); !hit {
		t.Error("MRU entry evicted")
	}
	if tl.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", tl.Stats().Evictions)
	}
}

func TestInsertRefreshesExisting(t *testing.T) {
	tl := MustNew(Config{Entries: 4, Ways: 4})
	tl.Insert(page(1), 0x1000)
	tl.Insert(page(1), 0x2000) // remap, no new entry
	frame, hit := tl.Lookup(page(1))
	if !hit || frame != 0x2000 {
		t.Errorf("refresh lookup = %#x,%v", frame, hit)
	}
	if tl.Stats().Evictions != 0 {
		t.Error("refresh caused eviction")
	}
}

// TestRecallDistanceAtSTLB drives the Fig. 18 tracker through Lookup and
// Insert on a one-set TLB. An entry evicted before ResetStats (the end of
// warmup) must not be counted as a recall after it, since its eviction is
// not counted.
func TestRecallDistanceAtSTLB(t *testing.T) {
	for _, tc := range []struct {
		name      string
		reset     bool // ResetStats between the eviction and the recall
		samples   uint64
		evictions uint64
		dist      uint64
	}{
		{name: "recalled", samples: 1, evictions: 1, dist: 2},
		{name: "evicted-before-reset", reset: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tl := MustNew(Config{Entries: 2, Ways: 2})
			tl.EnableRecall()
			tl.Lookup(page(1)) // seq 1, miss
			tl.Insert(page(1), 0x1000)
			tl.Lookup(page(2)) // seq 2, miss
			tl.Insert(page(2), 0x2000)
			tl.Lookup(page(3)) // seq 3, miss; insert evicts page 1 at seq 3
			tl.Insert(page(3), 0x3000)
			if tc.reset {
				tl.ResetStats()
			}
			tl.Lookup(page(4)) // seq 4
			tl.Lookup(page(1)) // seq 5 → recall distance 5-3 = 2
			r := tl.Recall()
			if r.Hist.Total() != tc.samples || r.Evictions != tc.evictions {
				t.Fatalf("%d recall samples for %d evictions, want %d for %d",
					r.Hist.Total(), r.Evictions, tc.samples, tc.evictions)
			}
			if r.Hist.Max() != tc.dist {
				t.Errorf("recall distance = %d, want %d", r.Hist.Max(), tc.dist)
			}
		})
	}
}

func TestRecallDisabled(t *testing.T) {
	tl := MustNew(Config{Entries: 4, Ways: 4})
	if r := tl.Recall(); r.Hist != nil || r.Valid() {
		t.Error("histogram without tracking")
	}
}

func TestTLBNeverForgetsWrongFrame(t *testing.T) {
	tl := MustNew(Config{Entries: 64, Ways: 4})
	truth := map[mem.Addr]mem.Addr{}
	f := func(ops []uint16) bool {
		for _, op := range ops {
			vpn := mem.Addr(op % 256)
			va := vpn << mem.PageBits
			if op%2 == 0 {
				frame := mem.Addr(op) << mem.PageBits
				tl.Insert(va, frame)
				truth[vpn] = frame
			} else if frame, hit := tl.Lookup(va); hit {
				if want, ok := truth[vpn]; !ok || frame != want {
					return false // hit with a frame never inserted
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPSCDeepestHitWins(t *testing.T) {
	p := NewPSC(DefaultPSCSizes())
	va := mem.Addr(0x1234_5678_9000)
	if got := p.Lookup(va); got != mem.PTLevels {
		t.Fatalf("empty PSC start level = %d, want %d", got, mem.PTLevels)
	}
	// Insert at level 4: walker starts at 3.
	p.Insert(va, 4, 0xAAA000)
	if got := p.Lookup(va); got != 3 {
		t.Errorf("start level = %d, want 3", got)
	}
	// Insert at level 2 (deepest): walker starts at 1 (leaf only).
	p.Insert(va, 2, 0xBBB000)
	if got := p.Lookup(va); got != 1 {
		t.Errorf("start level = %d, want 1", got)
	}
	st := p.Stats()
	if st.Lookups != 3 || st.Hits[2] != 1 || st.Hits[4] != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPSCPrefixSharing(t *testing.T) {
	p := NewPSC(DefaultPSCSizes())
	// Two addresses in the same 2MB region share the PSCL2 entry.
	a := mem.Addr(0x4000_0000)
	b := a + 512*mem.PageSize - 1 // last byte of the same level-1 table reach
	p.Insert(a, 2, 0xCCC000)
	if got := p.Lookup(b); got != 1 {
		t.Errorf("same-region lookup start = %d, want 1", got)
	}
	// An address in a different 2MB region misses PSCL2.
	c := a + 512*mem.PageSize
	if got := p.Lookup(c); got != mem.PTLevels {
		t.Errorf("cross-region lookup start = %d, want %d", got, mem.PTLevels)
	}
}

func TestPSCCapacityLRU(t *testing.T) {
	p := NewPSC(PSCSizes{L2: 2, L3: 1, L4: 1, L5: 1})
	region := func(i int) mem.Addr { return mem.Addr(i) << 21 } // distinct 2MB regions
	p.Insert(region(0), 2, 0x1000)
	p.Insert(region(1), 2, 0x2000)
	p.Lookup(region(0)) // refresh region 0
	p.Insert(region(2), 2, 0x3000)
	// Region 1 was LRU and must be gone.
	if got := p.Lookup(region(1)); got != mem.PTLevels {
		t.Error("LRU PSC entry survived")
	}
	if got := p.Lookup(region(0)); got != 1 {
		t.Error("MRU PSC entry evicted")
	}
}

func TestPSCInsertBounds(t *testing.T) {
	p := NewPSC(DefaultPSCSizes())
	p.Insert(0, 1, 0x1) // invalid level: ignored
	p.Insert(0, 6, 0x1) // invalid level: ignored
	if got := p.Lookup(0); got != mem.PTLevels {
		t.Error("invalid insert became visible")
	}
	p.ResetStats()
	if p.Stats().Lookups != 0 {
		t.Error("ResetStats failed")
	}
}

func TestHugeEntries(t *testing.T) {
	tl := MustNew(Config{Entries: 64, Ways: 4, HugeEntries: 2})
	va := mem.Addr(0x4020_1234)
	tl.InsertHuge(va, mem.HugePageBase(0xA000_0000))
	// Any address within the same 2MB region hits the huge entry.
	frame, hit := tl.Lookup(va + 0x12345)
	if !hit || frame != mem.HugePageBase(0xA000_0000) {
		t.Fatalf("huge lookup = %#x,%v", frame, hit)
	}
	// A different 2MB region misses.
	if _, hit := tl.Lookup(va + mem.HugePageSize); hit {
		t.Error("cross-region huge hit")
	}
	// LRU within the huge array.
	tl.InsertHuge(va+1*mem.HugePageSize, 0xB000_0000)
	tl.Lookup(va) // refresh first
	tl.InsertHuge(va+2*mem.HugePageSize, 0xC000_0000)
	if _, hit := tl.Lookup(va + 1*mem.HugePageSize); hit {
		t.Error("LRU huge entry survived")
	}
	if _, hit := tl.Lookup(va); !hit {
		t.Error("MRU huge entry evicted")
	}
}

func TestHugeInsertDroppedWithoutArray(t *testing.T) {
	tl := MustNew(Config{Entries: 64, Ways: 4}) // HugeEntries: 0
	tl.InsertHuge(0x40_0000, 0xA000_0000)
	if _, hit := tl.Lookup(0x40_0000); hit {
		t.Error("huge entry visible with HugeEntries=0")
	}
}
