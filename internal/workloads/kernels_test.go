package workloads

import (
	"testing"

	"atcsim/internal/mem"
	"atcsim/internal/trace"
)

// TestRNGAtMatchesSequentialDraws checks the on-demand MIS priority: the
// value at stream position e·N + v, computed by rng.at, equals the one the
// sequential generator draws there. Epochs e ≥ 1 only start after a full
// maximal-set computation, far beyond any digest-sized trace, so this is
// what pins them.
func TestRNGAtMatchesSequentialDraws(t *testing.T) {
	n := uint64(1) << defaultLogN
	for _, seed := range []int64{1, 3, -7} {
		base := newRNG(seed)
		seq := newRNG(seed)
		samples := map[uint64]bool{}
		for e := uint64(1); e <= 3; e++ {
			for _, v := range []uint64{0, 1, 2, 12345, n / 2, n - 2, n - 1} {
				samples[e*n+v] = true
			}
		}
		for k := uint64(0); k <= 4*n; k++ {
			want := seq.next()
			if samples[k] {
				if got := base.at(k); got != want {
					t.Fatalf("seed %d: at(%d) = %#x, sequential draw %#x", seed, k, got, want)
				}
			}
		}
	}
}

// TestKernelsMatchStoredStateReference runs mis and radii against the
// versions that stored every priority, the full worklist and a cleared
// bitmap per restart. On the default graph no test-sized MIS trace
// restarts (a vertex whose out-neighbour joined the set loses every pass,
// so the worklist hardly ever empties), so the graphs here are mostly tiny:
// on 2–8 vertices a trace spans many epochs of both kernels.
func TestKernelsMatchStoredStateReference(t *testing.T) {
	for _, c := range []struct{ logN, degree int }{{1, 2}, {2, 2}, {3, 2}, {3, 1}, {10, 4}} {
		g := BuildGraph(c.logN, c.degree, 7)
		for _, seed := range []int64{1, 2} {
			for _, k := range []struct {
				name     string
				got, ref func(*Graph, int, int64) *trace.Trace
			}{{"mis", mis, misStored}, {"radii", radii, radiiStored}} {
				got, want := k.got(g, 100_000, seed), k.ref(g, 100_000, seed)
				if digestTrace(got) != digestTrace(want) {
					t.Errorf("%s on BuildGraph(%d, %d, 7), seed %d: trace differs from the stored-state reference",
						k.name, c.logN, c.degree, seed)
				}
			}
		}
	}
}

// misStored is MIS as it was first written: a stored priority per vertex,
// drawn sequentially at every restart, and an explicit worklist.
func misStored(g *Graph, n int, seed int64) *trace.Trace {
	b := trace.MustNewBuilder("mis", n)
	const (
		undecided = int8(0)
		inSet     = int8(1)
		outSet    = int8(2)
	)
	state := make([]int8, g.N)
	prio := make([]uint32, g.N)
	var work, nextWork []int32
	r := newRNG(seed)
	restart := func() {
		work = work[:0]
		for v := range state {
			state[v] = undecided
			prio[v] = uint32(r.next())
			work = append(work, int32(v))
		}
	}
	restart()
	for !b.Full() {
		nextWork = nextWork[:0]
		for wi := 0; wi < len(work) && !b.Full(); wi++ {
			v := int(work[wi])
			b.Load(siteMIS+0, baseAux+mem.Addr(wi)*4)
			b.Load(siteMIS+1, prop16VA(v))
			b.Branch(siteMIS+2, state[v] == undecided)
			if state[v] != undecided {
				continue
			}
			lo, dst := g.Neighbors(v)
			b.Load(siteMIS+3, g.offsetVA(v))
			win := true
			for k, t := range dst {
				u := int(t)
				b.Load(siteMIS+4, g.edgeVA(lo+k))
				b.LoadDep(siteMIS+5, prop16VA(u))
				b.ALU(siteMIS+9, 1)
				lose := state[u] == inSet ||
					(state[u] == undecided && (prio[u] > prio[v] || (prio[u] == prio[v] && u > v)))
				b.Branch(siteMIS+6, lose)
				if lose {
					win = false
					break
				}
			}
			if win {
				state[v] = inSet
				b.Store(siteMIS+7, prop16VA(v))
				for k := 0; k < len(dst) && !b.Full(); k++ {
					u := int(dst[k])
					if state[u] == undecided {
						state[u] = outSet
						b.Store(siteMIS+8, prop16VA(u))
					}
				}
			} else {
				nextWork = append(nextWork, int32(v))
			}
		}
		work, nextWork = nextWork, work
		if len(work) == 0 {
			restart()
		}
	}
	return b.Build()
}

// radiiStored is Radii with both arrays cleared at every restart.
func radiiStored(g *Graph, n int, seed int64) *trace.Trace {
	b := trace.MustNewBuilder("radii", n)
	visited := make([]uint64, g.N)
	inNext := make([]bool, g.N)
	var frontier, next []int32
	r := newRNG(seed)
	restart := func() {
		for i := range visited {
			visited[i] = 0
			inNext[i] = false
		}
		frontier = frontier[:0]
		next = next[:0]
		for k := 0; k < 64; k++ {
			v := r.intn(g.N)
			visited[v] |= 1 << k
			frontier = append(frontier, int32(v))
		}
	}
	restart()
	for !b.Full() {
		for fi := 0; fi < len(frontier) && !b.Full(); fi++ {
			v := int(frontier[fi])
			b.Load(siteRadii+0, baseAux+mem.Addr(fi)*4)
			b.Load(siteRadii+1, prop16VA(v))
			lo, dst := g.Neighbors(v)
			b.Load(siteRadii+2, g.offsetVA(v))
			for k, t := range dst {
				u := int(t)
				b.Load(siteRadii+3, g.edgeVA(lo+k))
				b.LoadDep(siteRadii+4, prop16VA(u))
				b.ALU(siteRadii+8, 2)
				add := visited[v] &^ visited[u]
				b.Branch(siteRadii+5, add != 0)
				if add != 0 {
					visited[u] |= add
					b.Store(siteRadii+6, prop16VA(u))
					if !inNext[u] {
						inNext[u] = true
						next = append(next, int32(u))
						b.Store(siteRadii+7, baseAux+mem.Addr(len(next))*4)
					}
				}
			}
		}
		for _, u := range next {
			inNext[u] = false
		}
		frontier, next = next, frontier[:0]
		if len(frontier) == 0 {
			restart()
		}
	}
	return b.Build()
}
