package workloads

import (
	"runtime"
	"sync"

	"atcsim/internal/mem"
)

// Graph is a CSR-encoded directed graph shared by the Ligra-like kernels,
// mirroring how the Ligra benchmarks all run over one input graph. Vertex
// properties are 8 bytes, edges 4 bytes, so address math below matches the
// array layouts the real kernels would have.
//
// Rows are built on demand (see BuildGraph): a reader reaches them only
// through Neighbors and Degree, and the first row read in a bucket
// finalizes that bucket. All methods are safe for concurrent use.
type Graph struct {
	N int
	M int

	offsets []int32 // len N+1; bucket boundaries from the build, the rest on finalize
	edges   []int32 // len M; a segment holds edge indices until its bucket is finalized

	shift int         // bucket b holds vertices [b<<shift, (b+1)<<shift)
	draws rng         // the edge stream's generator at its start
	once  []sync.Once // one per bucket: its finalize

	mu        sync.Mutex // guards everything below
	index     []int32    // the finalized segment's edge indices, in stream order
	row       []int32    // and each one's source, relative to the bucket's first vertex
	cursor    []int32    // the bucket's row cursors, one per vertex
	finalized int        // buckets finalized so far
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
// them from the edge index alone. The sources are split by their high bits
// into buckets of consecutive vertices, so each bucket's rows are one
// contiguous segment of the edge array. BuildGraph makes two passes over
// the stream, each split across up to GOMAXPROCS workers (buildWorkers);
// worker k owns the contiguous edge range [k·m/W, (k+1)·m/W):
//
//   - Totals: each worker draws the sources of its range (never the
//     destinations) and counts them into its own row of a
//     worker × bucket table. A prefix sum in (bucket, worker) order gives
//     each segment's start, which is the row start of the bucket's first
//     vertex, and each worker its own cursor inside each segment.
//   - Bucket: each worker scans its range again and writes each edge's
//     index at its own cursor in the edge's bucket: one sequential write
//     stream per worker and bucket.
//
// Inside a segment the workers' slices follow worker order, and each
// worker writes its range in stream order, so every segment holds its edge
// indices in stream order whatever the worker count: the output does not
// depend on W. One worker runs on the calling goroutine.
//
// A bucket's rows are finalized the first time a kernel reads one of them.
// The finalize copies the segment's indices and their sources into scratch
// buffers, counting the sources into per-vertex cursors, prefix-sums the
// cursors from the segment start into the bucket's slice of offsets, then
// recomputes each edge's destination and writes it at its row's cursor.
// Indices in a segment are in stream order, so each row keeps the order of
// a plain stream-order scatter. The last row's end is the next bucket's
// start, which the build already set, so no finalize writes a neighbour's
// offsets.
//
// A single-pass scatter writes each edge at a random row of the whole edge
// array, one cache miss per edge; here every random write lands inside one
// segment. bucketBits makes at least 64 buckets and caps a segment at about
// 512 KiB: at the default shape that is 64 segments of 512 KiB, each of
// which, with its 64 KiB slice of offsets and the scratch it is copied to,
// fits in a core's L2. A short trace reads few buckets (500k instructions
// of pr, cc or mis read 2 of the 64), so it pays for few finalizes.
// Besides the two CSR arrays the graph keeps two scratch buffers the size
// of the largest segment (about 1/64 of the edges, because sources are
// uniform), one cursor per vertex of a bucket and one sync.Once per bucket;
// the build's worker × bucket table is dropped when it returns.
func BuildGraph(logN, degree int, seed int64) *Graph {
	return buildGraph(logN, degree, seed, bucketBits(logN, degree), buildWorkers((1<<logN)*degree))
}

// segmentEdges is the largest average bucket segment: 2^17 int32 edges,
// 512 KiB. minBucketBits keeps at least 64 buckets, so each scratch buffer
// stays near 1/64 of the edge array on graphs whose whole edge array is
// small.
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

// workerEdges is the fewest edges worth a build worker of their own: a
// pass over 2^16 edges takes about a millisecond, far more than starting
// a goroutine.
const workerEdges = 1 << 16

// buildWorkers returns how many workers build a graph of m edges: one per
// GOMAXPROCS, but no more than give each at least workerEdges, and at
// least one.
func buildWorkers(m int) int {
	return max(1, min(runtime.GOMAXPROCS(0), m/workerEdges))
}

// buildGraph is BuildGraph with 2^bits buckets, 0 ≤ bits ≤ logN, built by
// workers ≥ 1 workers.
func buildGraph(logN, degree int, seed int64, bits, workers int) *Graph {
	n := 1 << logN
	m := n * degree
	mask := uint64(n - 1) // n is a power of two: & mask is % n
	shift := logN - bits
	buckets := 1 << bits
	draws := *newRNG(seed)

	// Bucket b holds sources [b<<shift, (b+1)<<shift): the segment
	// edges[offsets[b<<shift]:offsets[(b+1)<<shift]]. Row k of cursor is
	// worker k's: its edge count per bucket, then its cursor per segment.
	cursor := make([]int32, workers*buckets)
	split(workers, m, func(k, lo, hi int) {
		counts := cursor[k*buckets : (k+1)*buckets]
		for i := lo; i < hi; i++ {
			counts[(draws.at(2*uint64(i))&mask)>>shift]++
		}
	})
	offsets := make([]int32, n+1)
	start, largest := int32(0), int32(0)
	for b := range buckets {
		offsets[b<<shift] = start
		first := start
		for k := b; k < len(cursor); k += buckets {
			count := cursor[k]
			cursor[k] = start
			start += count
		}
		largest = max(largest, start-first)
	}
	offsets[n] = int32(m)

	edges := make([]int32, m)
	split(workers, m, func(k, lo, hi int) {
		cur := cursor[k*buckets : (k+1)*buckets]
		for i := lo; i < hi; i++ {
			b := (draws.at(2*uint64(i)) & mask) >> shift
			edges[cur[b]] = int32(i)
			cur[b]++
		}
	})
	return &Graph{N: n, M: m, offsets: offsets, edges: edges,
		shift: shift, draws: draws, once: make([]sync.Once, buckets),
		index: make([]int32, largest), row: make([]int32, largest), cursor: make([]int32, 1<<shift)}
}

// split calls pass(k, k·m/workers, (k+1)·m/workers) for every worker k at
// once and returns when all have returned. Worker 0 runs on the calling
// goroutine, so one worker starts no goroutine.
func split(workers, m int, pass func(k, lo, hi int)) {
	var wg sync.WaitGroup
	for k := 1; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pass(k, k*m/workers, (k+1)*m/workers)
		}()
	}
	pass(0, 0, m/workers)
	wg.Wait()
}

// finalize builds the rows of bucket b from its segment of edge indices.
func (g *Graph) finalize(b int) {
	lo, hi := b<<g.shift, (b+1)<<g.shift
	n, mask, draws, edges := g.N, uint64(g.N-1), g.draws, g.edges
	start := g.offsets[lo]
	g.mu.Lock()
	defer g.mu.Unlock()
	segment := edges[start:g.offsets[hi]]
	index, row, cursor := g.index[:len(segment)], g.row[:len(segment)], g.cursor
	clear(cursor)
	for k, i := range segment {
		v := int(draws.at(2*uint64(i))&mask) - lo
		index[k], row[k] = i, int32(v)
		cursor[v]++
	}
	for v, count := range cursor {
		cursor[v] = start
		start += count
	}
	copy(g.offsets[lo+1:hi], cursor[1:])
	for k, i := range index {
		s := lo + int(row[k])
		d := skew(draws.at(2*uint64(i)+1), n)
		if s == d {
			d = (d + 1) % n
		}
		edges[cursor[row[k]]] = int32(d)
		cursor[row[k]]++
	}
	g.finalized++
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

// Neighbors returns v's adjacency list: the index of its first edge in the
// CSR edge array and its targets. The first read of a row in a bucket
// finalizes the bucket.
func (g *Graph) Neighbors(v int) (first int, dst []int32) {
	b := v >> g.shift
	g.once[b].Do(func() { g.finalize(b) })
	lo, hi := g.offsets[v], g.offsets[v+1]
	return int(lo), g.edges[lo:hi:hi]
}

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int) int {
	_, dst := g.Neighbors(v)
	return len(dst)
}
