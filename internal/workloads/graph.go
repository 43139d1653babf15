package workloads

import (
	"sync"

	"atcsim/internal/mem"
)

// Graph is a CSR-encoded directed graph shared by the Ligra-like kernels,
// mirroring how the Ligra benchmarks all run over one input graph. Vertex
// properties are 8 bytes, edges 4 bytes, so address math below matches the
// array layouts the real kernels would have.
type Graph struct {
	N       int
	M       int
	Offsets []int32 // len N+1
	Edges   []int32 // len M, CSR targets
}

// Virtual addresses of graph structures for a vertex/edge index.
func (g *Graph) offsetVA(v int) mem.Addr { return baseOffsets + mem.Addr(v)*4 }
func (g *Graph) edgeVA(e int) mem.Addr   { return baseEdges + mem.Addr(e)*4 }

// prop1VA/prop2VA address the two per-vertex property records. Graph
// frameworks keep several properties per vertex (rank, degree, flags,
// shadows), so a vertex record is modelled as 128 bytes: the default
// 1M-vertex graph has a 128MB property footprint per array — 32K pages, 16×
// the 8MB reach of the 2048-entry STLB, and a 4K-line leaf-PTE working set
// (256KB), half the 512KB L2. The two arrays together need 64K pages and
// 512KB of leaf PTEs, the whole L2. With the 32MB edge array and 4MB of
// offsets that is about 290MB: the paper's regime of 200–400MB
// simulated-region footprints.
const propStride = 128

func prop1VA(v int) mem.Addr { return baseProp1 + mem.Addr(v)*propStride }
func prop2VA(v int) mem.Addr { return baseProp2 + mem.Addr(v)*propStride }

// prop16VA models the leaner per-vertex state some kernels keep (a packed
// 16-byte scalar pair, as Ligra's dist/priority arrays are): a smaller
// footprint and lower STLB pressure — the knob that separates the paper's
// Medium benchmarks from the High ones.
func prop16VA(v int) mem.Addr { return baseProp2 + mem.Addr(v)*16 }

// Default graph scale: 2^20 vertices, average degree 8 (8M edges, 32MB
// edge array, 4MB offset array).
const (
	defaultLogN   = 20
	defaultDegree = 8
)

// BuildGraph constructs a power-law random graph deterministically from the
// seed: uniformly random sources, cube-skewed destinations (heavy head).
//
// The edge stream is drawn twice from the counter-based generator instead of
// being buffered: pass 1 counts each source's out-degree into offsets[s+1]
// (skipping the destination draw), a prefix sum turns the counts into row
// starts, and pass 2 replays the identical (s, d) stream, writing each
// destination at its row's cursor offsets[s]. That leaves offsets[v] at the
// end of row v, so a one-slot shift restores the row starts. Only the two
// CSR arrays are ever allocated.
func BuildGraph(logN, degree int, seed int64) *Graph {
	n := 1 << logN
	m := n * degree

	offsets := make([]int32, n+1)
	r := newRNG(seed)
	for i := 0; i < m; i++ {
		offsets[r.intn(n)+1]++
		r.skip() // the destination draw
	}
	for v := 1; v <= n; v++ {
		offsets[v] += offsets[v-1]
	}

	edges := make([]int32, m)
	r = newRNG(seed)
	for i := 0; i < m; i++ {
		s := r.intn(n)
		d := r.skewed(n)
		if s == d {
			d = (d + 1) % n
		}
		edges[offsets[s]] = int32(d)
		offsets[s]++
	}
	copy(offsets[1:], offsets[:n])
	offsets[0] = 0
	return &Graph{N: n, M: m, Offsets: offsets, Edges: edges}
}

var (
	sharedOnce  sync.Once
	sharedGraph *Graph
)

// sharedLigraGraph returns the process-wide input graph used by all Ligra
// kernels (built once; deterministic).
func sharedLigraGraph() *Graph {
	sharedOnce.Do(func() {
		sharedGraph = BuildGraph(defaultLogN, defaultDegree, 0xA11CE)
	})
	return sharedGraph
}

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int) int { return int(g.Offsets[v+1] - g.Offsets[v]) }

// Neighbors returns the CSR slice bounds of v's adjacency list.
func (g *Graph) Neighbors(v int) (lo, hi int) {
	return int(g.Offsets[v]), int(g.Offsets[v+1])
}
