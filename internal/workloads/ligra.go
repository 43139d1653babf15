package workloads

import (
	"atcsim/internal/mem"
	"atcsim/internal/trace"
)

// The six Ligra-like graph kernels. Each executes the real algorithm over
// the shared power-law graph and emits the loads/stores/branches its inner
// loops would issue. Property arrays are 8B per vertex; random
// vertex-indexed loads are what produce the high STLB MPKI the paper's
// High-category benchmarks show.

// Distinct static-site bases per kernel keep IP signatures disjoint.
const (
	sitePR = iota*100 + 100
	siteBF
	siteCC
	siteRadii
	siteMIS
	siteTC
	siteMCF
	siteCanneal
	siteXalan
)

// pr is pull-style PageRank: every edge reads the source's rank — a random
// 8-byte load over the whole vertex set per edge. The paper's highest STLB
// MPKI benchmark.
//
// The rank values never decide an emitted instruction: every address is a
// function of the vertex or edge index, and the only branch is the edge-loop
// bound. So the kernel keeps no rank arrays and emits the accesses a rank
// update performs.
func pr(g *Graph, n int, seed int64) *trace.Trace {
	b := trace.MustNewBuilder("pr", n)
	// The seed rotates the vertex scan so different seeds sample different
	// regions of the iteration space.
	offset := int(uint64(seed) * 2654435761 % uint64(g.N))
	for !b.Full() {
		for i := 0; i < g.N && !b.Full(); i++ {
			v := (i + offset) % g.N
			lo, dst := g.Neighbors(v)
			b.Load(sitePR+0, g.offsetVA(v)) // offsets[v] (sequential)
			for k, u := range dst {
				b.Load(sitePR+1, g.edgeVA(lo+k))     // edge target (sequential)
				b.LoadDep(sitePR+2, prop1VA(int(u))) // rank[u] (random!)
				b.ALU(sitePR+3, 2)                   // sum += rank[u]/deg[u]
				b.Branch(sitePR+4, k+1 < len(dst))   // edge-loop branch
			}
			b.ALU(sitePR+5, 1)            // next[v] = 0.15/N + 0.85*sum
			b.Store(sitePR+6, prop2VA(v)) // next[v]
		}
	}
	return b.Build()
}

// cc is label-propagation connected components: per edge a random load of
// the neighbour's label plus a data-dependent branch and occasional store.
func cc(g *Graph, n int, seed int64) *trace.Trace {
	b := trace.MustNewBuilder("cc", n)
	label := make([]int32, g.N)
	for v := range label {
		label[v] = int32(v)
	}
	offset := int(uint64(seed) * 0x9E3779B9 % uint64(g.N))
	for round := 0; !b.Full(); round++ {
		changed := false
		for i := 0; i < g.N && !b.Full(); i++ {
			v := (i + offset) % g.N
			lo, dst := g.Neighbors(v)
			b.Load(siteCC+0, g.offsetVA(v))
			best := label[v]
			b.Load(siteCC+1, prop1VA(v))
			for k, t := range dst {
				u := int(t)
				b.Load(siteCC+2, g.edgeVA(lo+k))
				b.LoadDep(siteCC+3, prop1VA(u)) // label[u] (random)
				b.ALU(siteCC+7, 2)
				improved := label[u] < best
				b.Branch(siteCC+4, improved)
				if improved {
					best = label[u]
				}
			}
			if best != label[v] {
				label[v] = best
				changed = true
				b.Store(siteCC+5, prop1VA(v))
			}
			b.Branch(siteCC+6, best != label[v])
		}
		if !changed {
			// Converged: reshuffle labels so the trace keeps exercising
			// the propagation path when replayed longer than convergence.
			for v := range label {
				label[v] = int32((v*7 + round) % g.N)
			}
		}
	}
	return b.Build()
}

// bf is frontier-based Bellman-Ford SSSP in Ligra's sparse mode: a work
// queue of active vertices relaxes its out-edges each round. Sequential
// frontier pops dilute the random property loads — high STLB MPKI, but
// below pr/cc, like the paper's ordering.
func bf(g *Graph, n int, seed int64) *trace.Trace {
	b := trace.MustNewBuilder("bf", n)
	const inf = int32(1) << 30
	dist := make([]int32, g.N)
	inFrontier := make([]bool, g.N)
	var frontier, next []int32
	r := newRNG(seed)
	reset := func() {
		for v := range dist {
			dist[v] = inf
			inFrontier[v] = false
		}
		src := r.intn(g.N)
		dist[src] = 0
		frontier = append(frontier[:0], int32(src))
		next = next[:0]
	}
	reset()
	for !b.Full() {
		for fi := 0; fi < len(frontier) && !b.Full(); fi++ {
			v := int(frontier[fi])
			inFrontier[v] = false
			b.Load(siteBF+0, baseAux+mem.Addr(fi)*4) // frontier pop (sequential)
			lo, dst := g.Neighbors(v)
			b.Load(siteBF+2, g.offsetVA(v))
			b.Load(siteBF+3, prop16VA(v)) // dist[v] (random)
			for k, t := range dst {
				e, u := lo+k, int(t)
				b.Load(siteBF+4, g.edgeVA(e))
				b.LoadDep(siteBF+5, prop16VA(u)) // dist[u] (random)
				w := int32(e%16) + 1
				b.ALU(siteBF+9, 2) // weight add + compare setup
				relax := dist[v]+w < dist[u]
				b.Branch(siteBF+6, relax)
				if relax {
					dist[u] = dist[v] + w
					b.Store(siteBF+7, prop16VA(u)) // dist[u] (random store)
					if !inFrontier[u] {
						inFrontier[u] = true
						next = append(next, int32(u))
						b.Store(siteBF+8, baseAux+mem.Addr(len(next))*4)
					}
				}
			}
		}
		frontier, next = next, frontier[:0]
		if len(frontier) == 0 {
			reset()
		}
	}
	return b.Build()
}

// radii estimates graph radii with 64-source concurrent BFS over bitmask
// properties, Ligra-style sparse frontiers: random mask loads and stores
// per edge while frontiers persist.
func radii(g *Graph, n int, seed int64) *trace.Trace {
	b := trace.MustNewBuilder("radii", n)
	visited := make([]uint64, g.N)
	inNext := make([]bool, g.N)
	var frontier, next []int32
	r := newRNG(seed)
	// sources starts a search from 64 random vertices over a zero visited
	// array. inNext needs no reset: every round clears the entries it set.
	sources := func() {
		for k := 0; k < 64; k++ {
			v := r.intn(g.N)
			visited[v] |= 1 << k
			frontier = append(frontier, int32(v))
		}
	}
	sources()
	for !b.Full() {
		for fi := 0; fi < len(frontier) && !b.Full(); fi++ {
			v := int(frontier[fi])
			b.Load(siteRadii+0, baseAux+mem.Addr(fi)*4) // frontier pop
			b.Load(siteRadii+1, prop16VA(v))            // visited[v] (random)
			lo, dst := g.Neighbors(v)
			b.Load(siteRadii+2, g.offsetVA(v))
			for k, t := range dst {
				u := int(t)
				b.Load(siteRadii+3, g.edgeVA(lo+k))
				b.LoadDep(siteRadii+4, prop16VA(u)) // visited[u] (random)
				b.ALU(siteRadii+8, 2)               // mask combine
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
			clear(visited)
			sources()
		}
	}
	return b.Build()
}

// mis computes a maximal independent set with random priorities over a
// shrinking worklist of undecided vertices — mostly-sequential list scans
// plus random neighbour-state loads: a Medium benchmark.
//
// The kernel keeps one byte of state per vertex and the list of the last
// pass's losers. Every epoch (a run to a maximal set, then a restart) gives
// vertex v the priority drawn at position epoch·N + v of the seed's stream,
// computed on demand by rng.at. An epoch's first pass scans every vertex in
// order, so that worklist is never stored.
func mis(g *Graph, n int, seed int64) *trace.Trace {
	b := trace.MustNewBuilder("mis", n)
	const (
		undecided = int8(0)
		inSet     = int8(1)
		outSet    = int8(2)
	)
	state := make([]int8, g.N)
	r := newRNG(seed)
	epoch := 0
	prio := func(v int) uint32 { return uint32(r.at(uint64(epoch*g.N + v))) }
	var work []int32 // the worklist, unless every is set
	every := true    // the worklist is every vertex, in order
	for !b.Full() {
		m := len(work)
		if every {
			m = g.N
		}
		// Losers are compacted into work's own array: the write index
		// never passes the read index.
		losers := work[:0]
		for wi := 0; wi < m && !b.Full(); wi++ {
			v := wi
			if !every {
				v = int(work[wi])
			}
			b.Load(siteMIS+0, baseAux+mem.Addr(wi)*4) // worklist pop
			b.Load(siteMIS+1, prop16VA(v))            // state[v] (packed, random)
			b.Branch(siteMIS+2, state[v] == undecided)
			if state[v] != undecided {
				continue
			}
			lo, dst := g.Neighbors(v)
			b.Load(siteMIS+3, g.offsetVA(v))
			win := true
			pv := prio(v)
			for k, t := range dst {
				u := int(t)
				b.Load(siteMIS+4, g.edgeVA(lo+k))
				b.LoadDep(siteMIS+5, prop16VA(u)) // prio/state of u (packed, random)
				b.ALU(siteMIS+9, 1)
				lose := state[u] == inSet
				if state[u] == undecided {
					pu := prio(u)
					lose = pu > pv || (pu == pv && u > v)
				}
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
						b.Store(siteMIS+8, prop16VA(u)) // random store
					}
				}
			} else {
				losers = append(losers, int32(v))
			}
		}
		work, every = losers, false
		if len(work) == 0 {
			// Restart: a new epoch of priorities over all vertices.
			epoch++
			clear(state)
			every = true
		}
	}
	return b.Build()
}

// tc counts triangles by merge-intersecting adjacency lists: two mostly
// sequential edge streams with compare branches — the lowest-MPKI Ligra
// kernel, matching its Medium classification.
func tc(g *Graph, n int, seed int64) *trace.Trace {
	b := trace.MustNewBuilder("tc", n)
	r := newRNG(seed)
	for !b.Full() {
		// Vertices are processed in a scrambled order (as a parallel
		// work-stealing runtime would), so adjacency-list reads land on
		// random offsets of the CSR arrays.
		v := r.intn(g.N)
		lo, dst := g.Neighbors(v)
		b.Load(siteTC+0, g.offsetVA(v)) // offsets[v] (random)
		for k := 0; k < len(dst) && !b.Full(); k++ {
			u := int(dst[k])
			b.Load(siteTC+1, g.edgeVA(lo+k))
			if u >= v {
				b.Branch(siteTC+2, false)
				continue
			}
			b.Branch(siteTC+2, true)
			// Merge-intersect adj(v) and adj(u).
			ulo, udst := g.Neighbors(u)
			b.Load(siteTC+3, g.offsetVA(u)) // offsets[u] (random)
			i, j := 0, 0
			for i < len(dst) && j < len(udst) && !b.Full() {
				b.Load(siteTC+4, g.edgeVA(lo+i))  // sequential stream 1
				b.Load(siteTC+5, g.edgeVA(ulo+j)) // sequential stream 2
				a, c := dst[i], udst[j]
				b.Branch(siteTC+6, a < c)
				switch {
				case a < c:
					i++
				case c < a:
					j++
				default:
					i++
					j++
					b.ALU(siteTC+7, 1) // count++
				}
			}
		}
		b.ALU(siteTC+8, 3)
	}
	return b.Build()
}
