package workloads

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestGraphConcurrentRowReaders reads every row of one fresh graph from 8
// goroutines at once, each in its own vertex order, so readers race to
// finalize the same buckets and finalize different buckets side by side.
// Every row must equal the edge-list reference's. Under -race this checks
// that a row is only read after its bucket's finalize, and that finalizes
// share the scratch buffers safely.
func TestGraphConcurrentRowReaders(t *testing.T) {
	const logN, degree, seed = 14, 8, 42
	offsets, edges := edgeListGraph(logN, degree, seed)
	g := BuildGraph(logN, degree, seed)
	const readers = 8
	bad := make([]int, readers) // per reader: the first wrong row, or -1
	var wg sync.WaitGroup
	for k := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bad[k] = -1
			// Reader k visits v·(2k+1) + k mod N for v = 0, 1, …: an odd
			// stride is a permutation of the vertices.
			for i := range g.N {
				v := (i*(2*k+1) + k) % g.N
				first, dst := g.Neighbors(v)
				want := edges[offsets[v]:offsets[v+1]]
				if first != int(offsets[v]) || !slices.Equal(dst, want) || g.Degree(v) != len(want) {
					bad[k] = v
					return
				}
			}
		}()
	}
	wg.Wait()
	for k, v := range bad {
		if v >= 0 {
			t.Errorf("reader %d: row %d differs from the edge-list reference", k, v)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if want := len(g.once); g.finalized != want {
		t.Errorf("%d finalizes for %d buckets, want exactly one each", g.finalized, want)
	}
}

// TestGraphFinalizesOnlyReadBuckets pins how many of the default graph's 64
// buckets a 500k-instruction trace at seed 1 finalizes, each kernel on a
// fresh graph. pr, cc and mis read the rows of a few consecutive vertices,
// so they must stay lazy; bf, radii and tc read rows all over the graph.
// A new eager path or a full-graph reader shows here as a jump to 64.
func TestGraphFinalizesOnlyReadBuckets(t *testing.T) {
	for _, k := range []struct {
		name    string
		buckets int
	}{{"pr", 2}, {"cc", 2}, {"mis", 2}, {"bf", 64}, {"radii", 64}, {"tc", 64}} {
		g := BuildGraph(defaultLogN, defaultDegree, 0xA11CE)
		specs[k.name].OnGraph(g, 500_000, 1)
		g.mu.Lock()
		got := g.finalized
		g.mu.Unlock()
		if got != k.buckets {
			t.Errorf("%s finalized %d of %d buckets, want %d", k.name, got, len(g.once), k.buckets)
		}
	}
}

// packedStats describes the packed edge indices of some buckets of a graph
// whose build has returned.
type packedStats struct {
	dirty int // nonzero bytes past a region's packed bytes
	bad   int // bytes or edges that do not match
	// Gaps that fit their byte, gaps of 256 and more, and gaps that are
	// multiples of 256, whose byte is 0.
	short, long, round int
}

// packed checks the regions of every bucket b with want(b), so it must
// only see unfinalized buckets. Independently of the finalize's decode, it
// draws every index in each worker's range and matches each one of such a
// bucket against the next byte of the worker's region there.
func packed(g *Graph, want func(b int) bool) packedStats {
	var s packedStats
	mask, w, buckets := uint64(g.N-1), g.workers, len(g.once)
	next := make([]uint32, buckets) // the next byte of worker k's region in each bucket
	prev := make([]int, buckets)    // and the index its gap counts from
	for k := range w {
		lo, hi := k*g.M/w, (k+1)*g.M/w
		for b := range buckets {
			next[b], prev[b] = 4*uint32(g.regions[b*w+k]), lo-1
		}
		for i := lo; i < hi; i++ {
			b := int(g.draws.at(2*uint64(i))&mask) >> g.shift
			if !want(b) {
				continue
			}
			j := b*w + k
			if next[b] == 4*uint32(g.regions[j])+uint32(g.regions[j+1]-g.regions[j]) {
				s.bad++ // more edges than bytes
				continue
			}
			c := int(byte(g.edges[next[b]>>2] >> (8 * (next[b] & 3))))
			next[b]++
			switch gap := i - prev[b]; {
			case gap%256 != c:
				s.bad++
			case gap%256 == 0:
				s.round++
			case gap >= 256:
				s.long++
			default:
				s.short++
			}
			prev[b] = i
		}
		for b := range buckets {
			if !want(b) {
				continue
			}
			j := b*w + k
			first, end := 4*uint32(g.regions[j]), 4*uint32(g.regions[j+1])
			count := uint32(g.regions[j+1] - g.regions[j])
			if next[b] != first+count {
				s.bad++ // fewer edges than bytes
			}
			for p := first + count; p < end; p++ {
				if byte(g.edges[p>>2]>>(8*(p&3))) != 0 {
					s.dirty++
				}
			}
		}
	}
	return s
}

// TestPackedLayout checks where the build writes, since what the OS makes
// resident cannot be pinned in a test: at the default shape, built by one
// and by two workers, every region holds one byte per edge, decoding to
// the indices of the bucket's edges in the worker's range, and no byte
// after them is written, so no page past them needs backing. The buckets a
// 500k-instruction pr trace does not finalize must still hold both.
func TestPackedLayout(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := buildGraph(defaultLogN, defaultDegree, 0xA11CE, bucketBits(defaultLogN, defaultDegree), workers)
		check := func(when string, want func(b int) bool) {
			t.Helper()
			s := packed(g, want)
			if s.bad != 0 || s.dirty != 0 {
				t.Errorf("%d workers, %s: %d gaps decode wrong, %d nonzero bytes past the packed ones",
					workers, when, s.bad, s.dirty)
			}
		}
		check("after the build", func(int) bool { return true })

		specs["pr"].OnGraph(g, 500_000, 1)
		// A Do that runs finds a bucket no row read finalized. It also
		// marks the bucket done, so nothing may read this graph after.
		fresh := make([]bool, len(g.once))
		unread := 0
		for b := range g.once {
			g.once[b].Do(func() { fresh[b] = true })
			if fresh[b] {
				unread++
			}
		}
		if want := len(g.once) - 2; unread != want {
			t.Fatalf("%d workers: pr left %d buckets unfinalized, want %d", workers, unread, want)
		}
		check("after a 500k pr trace", func(b int) bool { return fresh[b] })
	}
}

// TestBuildGraphRejectsHugeShapes: the build addresses the edge array's
// bytes with uint32s, so from 2^30 edges it refuses the shape, before it
// allocates anything. (The int32 edge indices would overflow at 2^31.)
func TestBuildGraphRejectsHugeShapes(t *testing.T) {
	for _, c := range []struct{ logN, degree int }{
		{20, 1024}, {0, 1 << 30}, {30, 1}, {31, 0}, {-1, 1}, {4, -1},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msg := func() (msg string) {
			defer func() { msg, _ = recover().(string) }()
			buildGraph(c.logN, c.degree, 1, 0, 1)
			return ""
		}()
		runtime.ReadMemStats(&after)
		if want := fmt.Sprintf("graph of 2^%d vertices and degree %d", c.logN, c.degree); !strings.Contains(msg, want) {
			t.Errorf("buildGraph(%d, %d): panic %q, want one naming %q", c.logN, c.degree, msg, want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("buildGraph(%d, %d) allocated %d B before refusing", c.logN, c.degree, grew)
		}
	}
	// The largest shapes accepted, checked without building them.
	for _, c := range []struct{ logN, degree int }{{20, 1023}, {0, 1<<30 - 1}, {30, 0}} {
		checkShape(c.logN, c.degree)
	}
}
