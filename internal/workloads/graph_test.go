package workloads

import (
	"slices"
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
