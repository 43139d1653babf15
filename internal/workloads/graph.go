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
// The edge stream is never buffered. Edge i's source and destination are
// the counter-based draws 2i and 2i+1 (rng.at), so any pass can recompute
// them from the edge index alone. The build makes three passes:
//
//   - Count: draw each source in stream order (skipping the destination
//     draw) and count its out-degree into offsets[s+1]; a prefix sum turns
//     the counts into row starts.
//   - Bucket: split the sources by their high bits into buckets of
//     consecutive vertices, so each bucket's rows are one contiguous
//     segment of Edges. Scan the stream again and write each edge's index
//     at its bucket's cursor: one sequential write stream per bucket.
//   - Scatter: for each bucket, copy its segment's indices into a scratch
//     buffer, recompute each edge's (s, d) from its index and write d at
//     its row's cursor offsets[s]. Indices in a segment are in stream
//     order, so each row keeps the order of a plain stream-order scatter.
//
// The scatter leaves offsets[v] at the end of row v, so a one-slot shift
// restores the row starts. A single-pass scatter writes each edge at a
// random row of the whole edge array, one cache miss per edge; here every
// random write lands inside one segment. bucketBits makes at least 64
// buckets and caps a segment at about 512 KiB: at the default shape that
// is 64 segments of 512 KiB, each of which, with its 64 KiB slice of
// offsets and the scratch buffer it is copied to, fits in a core's L2.
// Besides the two CSR arrays the build allocates one scratch buffer the
// size of the largest segment (about 1/64 of Edges, because sources are
// uniform) and one cursor per bucket.
func BuildGraph(logN, degree int, seed int64) *Graph {
	return buildGraph(logN, degree, seed, bucketBits(logN, degree))
}

// segmentEdges is the largest average bucket segment: 2^17 int32 edges,
// 512 KiB. minBucketBits keeps at least 64 buckets, so the scratch buffer
// stays near 1/64 of Edges on graphs whose whole edge array is small.
const (
	segmentEdges  = 1 << 17
	minBucketBits = 6
)

// bucketBits returns how many high source bits pick a bucket: at least
// minBucketBits and enough for segments of at most segmentEdges on
// average, but never more than logN (one vertex per bucket).
func bucketBits(logN, degree int) int {
	m := (1 << logN) * degree
	b := minBucketBits
	for m>>b > segmentEdges {
		b++
	}
	return min(b, logN)
}

// buildGraph is BuildGraph with 2^bits buckets, 0 ≤ bits ≤ logN.
func buildGraph(logN, degree int, seed int64, bits int) *Graph {
	n := 1 << logN
	m := n * degree
	mask := uint64(n - 1) // n is a power of two: & mask is % n

	offsets := make([]int32, n+1)
	r := newRNG(seed)
	for i := 0; i < m; i++ {
		offsets[r.next()&mask+1]++
		r.skip() // the destination draw
	}
	for v := 1; v <= n; v++ {
		offsets[v] += offsets[v-1]
	}

	// Bucket b holds sources [b<<shift, (b+1)<<shift): the segment
	// edges[offsets[b<<shift]:offsets[(b+1)<<shift]].
	shift := logN - bits
	cursor := make([]int32, 1<<bits)
	largest := int32(0)
	for b := range cursor {
		cursor[b] = offsets[b<<shift]
		largest = max(largest, offsets[(b+1)<<shift]-cursor[b])
	}
	edges := make([]int32, m)
	r = newRNG(seed)
	for i := 0; i < m; i++ {
		b := (r.next() & mask) >> shift
		r.skip()
		edges[cursor[b]] = int32(i)
		cursor[b]++
	}

	r = newRNG(seed)
	scratch := make([]int32, largest)
	for b := range 1 << bits {
		seg := scratch[:copy(scratch, edges[offsets[b<<shift]:offsets[(b+1)<<shift]])]
		for _, i := range seg {
			s := r.at(2*uint64(i)) & mask
			d := skew(r.at(2*uint64(i)+1), n)
			if int(s) == d {
				d = (d + 1) % n
			}
			edges[offsets[s]] = int32(d)
			offsets[s]++
		}
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
