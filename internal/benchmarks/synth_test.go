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
// so the builders must allocate their output arrays and little else (the
// graph builder's scratch stays under 5% of its CSR arrays), and a kernel
// keeps only the state that decides what it emits.

// allocatedBytes returns the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readAllRows reads every row of g, so every bucket of it is finalized.
func readAllRows(g *workloads.Graph) {
	for v := range g.N {
		g.Degree(v)
	}
}

// TestFootprintBuildGraph bounds the graph's scratch beside the CSR arrays,
// at a small shape and at the default shape every Ligra run builds. The
// build and a finalize of every bucket are measured together: finalizes
// reuse the scratch the build allocated.
func TestFootprintBuildGraph(t *testing.T) {
	skipIfInstrumented(t)
	for _, c := range []struct {
		logN, degree int
		seed         int64
	}{{16, 8, 1}, {16, 8, 0xA11CE}, {20, 8, 0xA11CE}} {
		n, m := 1<<c.logN, (1<<c.logN)*c.degree
		csr := uint64(4 * (n + 1 + m)) // Offsets + Edges
		var g *workloads.Graph
		got := allocatedBytes(func() {
			g = workloads.BuildGraph(c.logN, c.degree, c.seed)
			readAllRows(g)
		})
		if g.N != n || g.M != m {
			t.Fatalf("BuildGraph(%d, %d, %#x): N=%d M=%d, want %d/%d", c.logN, c.degree, c.seed, g.N, g.M, n, m)
		}
		if limit := csr * 105 / 100; got > limit {
			t.Errorf("BuildGraph(%d, %d, %#x) allocated %d B, want ≤ %d (1.05 × the %d B CSR arrays)",
				c.logN, c.degree, c.seed, got, limit, csr)
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

// synthBytes returns the heap bytes one Build(n, seed) of the named kernel
// allocates, with the shared graph built beforehand.
func synthBytes(t *testing.T, name string, n int, seed int64) uint64 {
	t.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.Build(1, 1)
	var tr *trace.Trace
	got := allocatedBytes(func() { tr = spec.Build(n, seed) })
	if len(tr.Insts) != n {
		t.Fatalf("%s: built %d instructions, want %d", name, len(tr.Insts), n)
	}
	return got
}

// footprintN is the Full scale's trace length.
const footprintN = 500_000

// traceBytes is the size of a footprintN-instruction trace.
var traceBytes = uint64(footprintN * unsafe.Sizeof(trace.Inst{}))

// TestFootprintSynthesisPR: PageRank's rank values never reach the trace,
// so the kernel allocates the trace and nothing graph-sized.
func TestFootprintSynthesisPR(t *testing.T) {
	skipIfInstrumented(t)
	for _, seed := range []int64{1, 3} {
		if got, limit := synthBytes(t, "pr", footprintN, seed), traceBytes*105/100; got > limit {
			t.Errorf("seed %d: pr allocated %d B, want ≤ %d (1.05 × the %d B trace)", seed, got, limit, traceBytes)
		}
	}
}

// TestFootprintSynthesisMCF: the pointer chain is the node permutation
// itself (2M int32s); no next-pointer array.
func TestFootprintSynthesisMCF(t *testing.T) {
	skipIfInstrumented(t)
	const perm = 4 << 21
	for _, seed := range []int64{1, 3} {
		if got, limit := synthBytes(t, "mcf", footprintN, seed), traceBytes*105/100+perm; got > limit {
			t.Errorf("seed %d: mcf allocated %d B, want ≤ %d (1.05 × the %d B trace + the %d B permutation)",
				seed, got, limit, traceBytes, perm)
		}
	}
}

// TestFootprintSynthesisMIS: priorities are computed on demand and an
// epoch's first worklist (every vertex) is implicit, so MIS keeps one state
// byte per vertex of the shared 2^20-vertex graph plus the loser list. A
// loser emits at least 8 instructions (worklist pop, state load, branch,
// offsets load, then edge load, neighbour load, compare, branch on the
// losing edge), so the list never holds more than n/8 int32s. append grows
// a slice geometrically (×2, then ≥ ×1.25), so every array it allocated
// sums to under 8× the longest length, size-class rounding included:
// 8 × 4 B × n/8 = 4n bytes.
func TestFootprintSynthesisMIS(t *testing.T) {
	skipIfInstrumented(t)
	const state = 1 << 20
	const losers = 4 * footprintN
	for _, seed := range []int64{1, 3} {
		if got, limit := synthBytes(t, "mis", footprintN, seed), traceBytes*105/100+state+losers; got > limit {
			t.Errorf("seed %d: mis allocated %d B, want ≤ %d (1.05 × the %d B trace + %d B state + %d B losers)",
				seed, got, limit, traceBytes, state, losers)
		}
	}
}

// Benchmark outputs land here so the compiler cannot drop the measured calls.
var (
	graphSink *workloads.Graph
	traceSink *trace.Trace
)

// BenchmarkBuildGraph measures one build of the shared Ligra input graph at
// its default scale (2^20 vertices, degree 8): the two passes over the edge
// stream, with no bucket finalized.
func BenchmarkBuildGraph(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graphSink = workloads.BuildGraph(20, 8, 0xA11CE)
	}
}

// BenchmarkBuildGraphAllRows measures the build plus a finalize of every
// bucket: what a process pays whose traces read rows all over the graph.
func BenchmarkBuildGraphAllRows(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graphSink = workloads.BuildGraph(20, 8, 0xA11CE)
		readAllRows(graphSink)
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

// BenchmarkTraceSynthColdPR measures what a fresh process pays for its
// first Full-scale pr trace: the default graph's build, then the trace,
// which finalizes only the buckets it reads.
func BenchmarkTraceSynthColdPR(b *testing.B) {
	spec, err := workloads.ByName("pr")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graphSink = workloads.BuildGraph(20, 8, 0xA11CE)
		traceSink = spec.OnGraph(graphSink, 500_000, int64(i))
	}
}

func BenchmarkTraceSynthPR(b *testing.B)        { benchSynth(b, "pr") }
func BenchmarkTraceSynthMCF(b *testing.B)       { benchSynth(b, "mcf") }
func BenchmarkTraceSynthMIS(b *testing.B)       { benchSynth(b, "mis") }
func BenchmarkTraceSynthXalancbmk(b *testing.B) { benchSynth(b, "xalancbmk") }
