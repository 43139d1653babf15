package vm

import (
	"testing"
	"testing/quick"

	"atcsim/internal/mem"
)

func newPT(t *testing.T, scatter bool) *PageTable {
	t.Helper()
	a, err := NewFrameAllocator(30, scatter) // 1GB
	if err != nil {
		t.Fatal(err)
	}
	pt, err := NewPageTable(a)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestAllocatorValidation(t *testing.T) {
	if _, err := NewFrameAllocator(10, false); err == nil {
		t.Error("tiny physBits accepted")
	}
	if _, err := NewFrameAllocator(60, false); err == nil {
		t.Error("huge physBits accepted")
	}
}

func TestAllocDataUnique(t *testing.T) {
	for _, scatter := range []bool{false, true} {
		a, _ := NewFrameAllocator(26, scatter) // 64MB → 16K frames
		seen := map[mem.Addr]bool{}
		for i := 0; i < 10000; i++ {
			f, err := a.AllocData()
			if err != nil {
				t.Fatalf("scatter=%v alloc %d: %v", scatter, i, err)
			}
			if f%mem.PageSize != 0 {
				t.Fatalf("frame %#x not page aligned", f)
			}
			if seen[f] {
				t.Fatalf("scatter=%v duplicate frame %#x", scatter, f)
			}
			seen[f] = true
		}
		if a.Allocated() != 10000 {
			t.Errorf("Allocated = %d", a.Allocated())
		}
	}
}

func TestScatterActuallyScatters(t *testing.T) {
	a, _ := NewFrameAllocator(30, true)
	f0, _ := a.AllocData()
	f1, _ := a.AllocData()
	if f1 == f0+mem.PageSize {
		t.Error("scatter allocator returned contiguous frames")
	}
}

func TestPTRegionDisjointFromData(t *testing.T) {
	a, _ := NewFrameAllocator(26, true)
	dataMax := mem.Addr(a.maxData) << mem.PageBits
	for i := 0; i < 100; i++ {
		f, err := a.AllocPT()
		if err != nil {
			t.Fatal(err)
		}
		if f < dataMax {
			t.Fatalf("PT frame %#x inside data region", f)
		}
	}
	for i := 0; i < 100; i++ {
		f, _ := a.AllocData()
		if f >= dataMax {
			t.Fatalf("data frame %#x inside PT region", f)
		}
	}
}

func TestTranslateStable(t *testing.T) {
	pt := newPT(t, true)
	va := mem.Addr(0x12345678)
	p1, err := pt.Translate(va)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := pt.Translate(va)
	if p1 != p2 {
		t.Errorf("translation changed: %#x -> %#x", p1, p2)
	}
	if mem.PageOffset(p1) != mem.PageOffset(va) {
		t.Errorf("page offset not preserved: %#x vs %#x", p1, va)
	}
	// Same page, different offset: same frame.
	p3, _ := pt.Translate(mem.PageBase(va) + 7)
	if mem.PageBase(p3) != mem.PageBase(p1) {
		t.Error("same-page translation moved frames")
	}
	if pt.MappedPages() != 1 {
		t.Errorf("MappedPages = %d", pt.MappedPages())
	}
}

// TestFrameZeroMapping pins the leaf encoding's one corner: with scatter on,
// the first data frame handed out is physical frame 0, and a slot holding
// it must still read as mapped — a second translation may neither move the
// page nor map it again. Huge mode runs the same sequence.
func TestFrameZeroMapping(t *testing.T) {
	for _, huge := range []bool{false, true} {
		pt := newPT(t, true)
		if err := pt.SetHugePages(huge); err != nil {
			t.Fatal(err)
		}
		va := mem.Addr(0x6000_0123)
		if _, ok := pt.NodeFrame(va, 3); ok {
			t.Errorf("huge=%v: NodeFrame on an unmapped VA reported a table", huge)
		}
		p1, err := pt.Translate(va)
		if err != nil {
			t.Fatal(err)
		}
		if !huge && mem.PageBase(p1) != 0 {
			t.Fatalf("first scattered frame is %#x, want frame 0", mem.PageBase(p1))
		}
		p2, err := pt.Translate(va)
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 {
			t.Errorf("huge=%v: translation moved: %#x -> %#x", huge, p1, p2)
		}
		if n := pt.MappedPages(); n != 1 {
			t.Errorf("huge=%v: MappedPages = %d after translating one page twice", huge, n)
		}
		if _, pa, err := pt.Walk(va, mem.PTLevels); err != nil || pa != p1 {
			t.Errorf("huge=%v: walk PA %#x (err %v), want %#x", huge, pa, err, p1)
		}
	}
}

func TestDistinctPagesDistinctFrames(t *testing.T) {
	pt := newPT(t, true)
	f := func(a, b uint32) bool {
		va, vb := mem.Addr(a)<<mem.PageBits, mem.Addr(b)<<mem.PageBits
		pa, err1 := pt.Translate(va)
		pb, err2 := pt.Translate(vb)
		if err1 != nil || err2 != nil {
			return false
		}
		if va == vb {
			return pa == pb
		}
		return mem.PageBase(pa) != mem.PageBase(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWalkFullDepth(t *testing.T) {
	pt := newPT(t, false)
	va := mem.Addr(0x5555_4444_3333)
	steps, pa, err := pt.Walk(va, mem.PTLevels)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 5 {
		t.Fatalf("steps = %d, want 5", len(steps))
	}
	for i, s := range steps {
		if s.Level != 5-i {
			t.Errorf("step %d level = %d", i, s.Level)
		}
		if s.PTEAddr%mem.PTESize != 0 {
			t.Errorf("PTE addr %#x not 8B aligned", s.PTEAddr)
		}
	}
	want, _ := pt.Translate(va)
	if pa != want {
		t.Errorf("walk PA %#x != translate PA %#x", pa, want)
	}
}

func TestWalkTrimmedByStartLevel(t *testing.T) {
	pt := newPT(t, false)
	va := mem.Addr(0x1234_5000)
	for start := 1; start <= mem.PTLevels; start++ {
		steps, _, err := pt.Walk(va, start)
		if err != nil {
			t.Fatal(err)
		}
		if len(steps) != start {
			t.Errorf("start %d: %d steps", start, len(steps))
		}
		if steps[0].Level != start || steps[len(steps)-1].Level != 1 {
			t.Errorf("start %d: levels %v", start, steps)
		}
	}
	if _, _, err := pt.Walk(va, 0); err == nil {
		t.Error("start level 0 accepted")
	}
	if _, _, err := pt.Walk(va, 6); err == nil {
		t.Error("start level 6 accepted")
	}
}

func TestWalkDeterministic(t *testing.T) {
	pt := newPT(t, false)
	va := mem.Addr(0x9999_0000)
	s1, _, _ := pt.Walk(va, 5)
	s2, _, _ := pt.Walk(va, 5)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("walk not deterministic at step %d", i)
		}
	}
}

func TestNeighbourPTEsShareLine(t *testing.T) {
	// Eight virtually consecutive pages share one leaf-PTE cache line —
	// the property the paper's caching of translations relies on.
	pt := newPT(t, true)
	base := mem.Addr(0x4000_0000)
	var firstLine mem.Addr
	for i := 0; i < 8; i++ {
		steps, _, err := pt.Walk(base+mem.Addr(i)*mem.PageSize, 1)
		if err != nil {
			t.Fatal(err)
		}
		leaf := steps[len(steps)-1]
		if i == 0 {
			firstLine = mem.LineAddr(leaf.PTEAddr)
		} else if mem.LineAddr(leaf.PTEAddr) != firstLine {
			t.Fatalf("page %d leaf PTE on different line", i)
		}
	}
	// Page 8 must be on the next line (alignment means base%8pages==0).
	steps, _, _ := pt.Walk(base+8*mem.PageSize, 1)
	if mem.LineAddr(steps[len(steps)-1].PTEAddr) == firstLine {
		t.Error("9th page shares the first PTE line")
	}
}

func TestNodeFrame(t *testing.T) {
	pt := newPT(t, false)
	va := mem.Addr(0x7777_0000)
	if _, ok := pt.NodeFrame(va, 2); ok {
		t.Error("NodeFrame before mapping should miss")
	}
	pt.Translate(va)
	for k := 2; k <= mem.PTLevels; k++ {
		frame, ok := pt.NodeFrame(va, k)
		if !ok {
			t.Fatalf("NodeFrame(%d) missing after mapping", k)
		}
		if frame%mem.PageSize != 0 {
			t.Errorf("NodeFrame(%d) = %#x not aligned", k, frame)
		}
	}
	if _, ok := pt.NodeFrame(va, 1); ok {
		t.Error("NodeFrame(1) should be invalid")
	}
	if _, ok := pt.NodeFrame(va, 6); ok {
		t.Error("NodeFrame(6) should be invalid")
	}
	// The PSCL2 target (level-1 table frame) must contain the leaf PTE.
	frame, _ := pt.NodeFrame(va, 2)
	steps, _, _ := pt.Walk(va, 1)
	leaf := steps[0]
	if leaf.PTEAddr < frame || leaf.PTEAddr >= frame+mem.PageSize {
		t.Errorf("leaf PTE %#x outside level-1 table %#x", leaf.PTEAddr, frame)
	}
}

func TestPageTableNilAllocator(t *testing.T) {
	if _, err := NewPageTable(nil); err == nil {
		t.Error("nil allocator accepted")
	}
}

func TestHugePageMapping(t *testing.T) {
	pt := newPT(t, true)
	if err := pt.SetHugePages(true); err != nil {
		t.Fatal(err)
	}
	if !pt.HugePages() {
		t.Fatal("huge mode not set")
	}
	va := mem.Addr(0x4000_1234)
	pa, err := pt.Translate(va)
	if err != nil {
		t.Fatal(err)
	}
	// The 2MB offset must be preserved and the frame 2MB-aligned.
	if pa&(mem.HugePageSize-1) != va&(mem.HugePageSize-1) {
		t.Errorf("huge offset not preserved: va=%#x pa=%#x", va, pa)
	}
	if mem.HugePageBase(pa)&(mem.HugePageSize-1) != 0 {
		t.Error("huge frame not 2MB aligned")
	}
	// Two addresses in the same 2MB region share a frame.
	pa2, _ := pt.Translate(va + 0x100_000)
	if mem.HugePageBase(pa2) != mem.HugePageBase(pa) {
		t.Error("same 2MB region split across frames")
	}
	// A different 2MB region gets a different frame.
	pa3, _ := pt.Translate(va + mem.HugePageSize)
	if mem.HugePageBase(pa3) == mem.HugePageBase(pa) {
		t.Error("distinct 2MB regions share a frame")
	}
}

func TestHugeWalkStopsAtLevel2(t *testing.T) {
	pt := newPT(t, false)
	pt.SetHugePages(true)
	steps, pa, err := pt.Walk(0x7000_0000, mem.PTLevels)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 4 {
		t.Fatalf("huge walk steps = %d, want 4", len(steps))
	}
	last := steps[len(steps)-1]
	if last.Level != 2 || !last.Leaf {
		t.Errorf("huge leaf step = %+v", last)
	}
	for _, s := range steps[:len(steps)-1] {
		if s.Leaf {
			t.Errorf("non-final step marked leaf: %+v", s)
		}
	}
	want, _ := pt.Translate(0x7000_0000)
	if pa != want {
		t.Errorf("walk PA %#x != translate %#x", pa, want)
	}
	// NodeFrame is invalid at level 2 in huge mode (no level-1 tables).
	if _, ok := pt.NodeFrame(0x7000_0000, 2); ok {
		t.Error("NodeFrame(2) valid in huge mode")
	}
	if _, ok := pt.NodeFrame(0x7000_0000, 3); !ok {
		t.Error("NodeFrame(3) missing in huge mode")
	}
}

func TestSetHugePagesAfterMappingFails(t *testing.T) {
	pt := newPT(t, false)
	pt.Translate(0x1000)
	if err := pt.SetHugePages(true); err == nil {
		t.Error("SetHugePages after mapping accepted")
	}
}

func TestHugeFramesDisjointFrom4K(t *testing.T) {
	a, _ := NewFrameAllocator(28, true)
	seen := map[mem.Addr]bool{}
	var smalls []mem.Addr
	for i := 0; i < 100; i++ {
		f, err := a.AllocData()
		if err != nil {
			t.Fatal(err)
		}
		smalls = append(smalls, f)
		seen[f] = true
	}
	for i := 0; i < 10; i++ {
		h, err := a.AllocHugeData()
		if err != nil {
			t.Fatal(err)
		}
		if h%mem.HugePageSize != 0 {
			t.Fatalf("huge frame %#x not aligned", h)
		}
		for _, s := range smalls {
			if s >= h && s < h+mem.HugePageSize {
				t.Fatalf("4K frame %#x inside huge frame %#x", s, h)
			}
		}
	}
}
