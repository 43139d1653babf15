package trace

import (
	"testing"

	"atcsim/internal/mem"
)

// buildTest emits n deterministic instructions through the Builder.
func buildTest(t *testing.T, name string, n int) *Trace {
	t.Helper()
	b := MustNewBuilder(name, n)
	site := 0
	for !b.Full() {
		switch site % 4 {
		case 0:
			b.ALU(site, 1)
		case 1:
			b.Load(site, mem.Addr(site)*64)
		case 2:
			b.Store(site, mem.Addr(site)*128)
		default:
			b.Branch(site, site%8 == 3)
		}
		site++
	}
	return b.Build()
}

// TestCursorMatchesDirectIteration pins the cursor's contract: it hands out
// the trace's own instructions, in place, in exactly the cyclic replay
// sequence of direct indexing, across block boundaries and wrap-around,
// including traces shorter than one block. A block (one refill) starts
// every CursorBlock instructions and at every wrap.
func TestCursorMatchesDirectIteration(t *testing.T) {
	for _, n := range []int{1, 7, CursorBlock - 1, CursorBlock, CursorBlock + 1, 2*CursorBlock + 513} {
		tr := buildTest(t, "cursor", n)
		if len(tr.Insts) != n {
			t.Fatalf("built %d insts, want %d", len(tr.Insts), n)
		}
		cur := NewCursor(tr)
		pos := 0
		var refills uint64
		steps := 3*n + 17
		if steps < 4*CursorBlock {
			steps = 4 * CursorBlock
		}
		for i := 0; i < steps; i++ {
			if pos%CursorBlock == 0 {
				refills++
			}
			if got := cur.Next(); got != &tr.Insts[pos] {
				t.Fatalf("n=%d step %d: cursor %+v is not &Insts[%d]", n, i, *got, pos)
			}
			if cur.Refills() != refills {
				t.Fatalf("n=%d step %d: %d refills, want %d", n, i, cur.Refills(), refills)
			}
			if pos++; pos == len(tr.Insts) {
				pos = 0
			}
		}
	}
}

// TestCursorSteadyStateAllocs pins the zero-allocation property of the
// streaming hot path: Next never touches the heap after construction. Each
// run of CursorBlock steps over this 1.5-block trace starts a block, and
// every other run wraps.
func TestCursorSteadyStateAllocs(t *testing.T) {
	tr := buildTest(t, "alloc", 3*CursorBlock/2)
	cur := NewCursor(tr)
	var sink Inst
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < CursorBlock; i++ {
			sink = *cur.Next()
		}
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("cursor Next allocated %v per run, want 0", allocs)
	}
}

// TestBuilderFillsInPlace checks that Len/Full track the budget exactly,
// that emits past the budget are dropped, and that Build hands the emitted
// sequence over in the builder's own array, sized exactly to the limit.
func TestBuilderFillsInPlace(t *testing.T) {
	const limit = 8269
	b := MustNewBuilder("inplace", limit)
	for i := 0; !b.Full(); i++ {
		b.Load(i%13, mem.Addr(i)*64)
		if want := i + 1; b.Len() != want {
			t.Fatalf("after %d emits Len=%d", want, b.Len())
		}
	}
	if b.Len() != limit {
		t.Fatalf("Len=%d at Full, want %d", b.Len(), limit)
	}
	b.ALU(0, 5) // past the budget: dropped
	tr := b.Build()
	if len(tr.Insts) != limit || cap(tr.Insts) != limit {
		t.Fatalf("built len %d cap %d, want %d", len(tr.Insts), cap(tr.Insts), limit)
	}
	if &tr.Insts[0] != &b.insts[0] {
		t.Fatal("Build copied the builder's array")
	}
	for i := range tr.Insts {
		if tr.Insts[i].Op != OpLoad || tr.Insts[i].Addr != mem.Addr(i)*64 {
			t.Fatalf("inst %d corrupted: %+v", i, tr.Insts[i])
		}
	}
}
