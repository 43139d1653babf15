package benchmarks

import (
	"runtime"
	"testing"
	"unsafe"

	"atcsim/internal/mem"
	"atcsim/internal/trace"
	"atcsim/internal/workloads"
)

// These tests pin the memory footprint of input synthesis: the shared Ligra
// graph and every instruction trace are the largest allocations a run makes,
// so the builders must allocate their output arrays and nothing else.

// allocatedBytes returns the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestFootprintBuildGraph(t *testing.T) {
	skipIfInstrumented(t)
	const logN, degree = 16, 8
	n, m := 1<<logN, (1<<logN)*degree
	csr := uint64(4 * (n + 1 + m)) // Offsets + Edges
	for _, seed := range []int64{1, 0xA11CE} {
		var g *workloads.Graph
		got := allocatedBytes(func() { g = workloads.BuildGraph(logN, degree, seed) })
		if g.N != n || g.M != m {
			t.Fatalf("seed %#x: graph N=%d M=%d, want %d/%d", seed, g.N, g.M, n, m)
		}
		if limit := csr * 105 / 100; got > limit {
			t.Errorf("seed %#x: BuildGraph allocated %d B, want ≤ %d (1.05 × the %d B CSR arrays)",
				seed, got, limit, csr)
		}
	}
}

func TestFootprintTraceBuilder(t *testing.T) {
	skipIfInstrumented(t)
	const limit = 100_000
	insts := uint64(limit * unsafe.Sizeof(trace.Inst{}))
	var b *trace.Builder
	got := allocatedBytes(func() {
		b = trace.MustNewBuilder("footprint", limit)
		for i := 0; !b.Full(); i++ {
			b.Load(i%7, mem.Addr(i)*64)
			b.ALU(7, 1)
		}
	})
	if bound := insts * 105 / 100; got > bound {
		t.Errorf("filling a %d-instruction builder allocated %d B, want ≤ %d (1.05 × %d B)",
			limit, got, bound, insts)
	}
	var tr *trace.Trace
	// Build shares the builder's array: it allocates the trace header only,
	// never a second instruction array.
	if got := allocatedBytes(func() { tr = b.Build() }); got >= insts/2 {
		t.Errorf("Build allocated %d B: it copied the %d B instruction array", got, insts)
	}
	if len(tr.Insts) != limit || cap(tr.Insts) != limit {
		t.Errorf("built len %d cap %d, want %d", len(tr.Insts), cap(tr.Insts), limit)
	}
}

// Benchmark outputs land here so the compiler cannot drop the measured calls.
var (
	graphSink *workloads.Graph
	traceSink *trace.Trace
)

// BenchmarkBuildGraph measures one build of the shared Ligra input graph at
// its default scale (2^20 vertices, degree 8).
func BenchmarkBuildGraph(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graphSink = workloads.BuildGraph(20, 8, 0xA11CE)
	}
}

// benchSynth measures synthesizing one Full-scale (500k-instruction) trace.
// The shared graph is built before the timer starts.
func benchSynth(b *testing.B, name string) {
	spec, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	const n = 500_000
	spec.Build(n, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traceSink = spec.Build(n, int64(i))
	}
}

func BenchmarkTraceSynthPR(b *testing.B)        { benchSynth(b, "pr") }
func BenchmarkTraceSynthXalancbmk(b *testing.B) { benchSynth(b, "xalancbmk") }
