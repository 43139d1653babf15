package workloads

import (
	"atcsim/internal/mem"
	"atcsim/internal/trace"
)

// MCF mimics SPEC's network-simplex solver: dependent pointer chasing over
// 64-byte "node" records scattered across a large pool, with arithmetic on
// each node's fields and occasional cost-array lookups. The dependent chain
// limits MLP, and every hop lands on a fresh page — the paper's
// Medium-category SPEC benchmark.
//
// The kernel's only state is the 8 MiB node permutation that orders the
// chain: hop k lands on node perm[k mod 2M].
func MCF(n int, seed int64) *trace.Trace {
	b := trace.MustNewBuilder("mcf", n)
	const nodes = 1 << 21 // 2M nodes × 64B = 128MB pool (32K pages)
	nodeVA := func(i int) mem.Addr { return basePool + mem.Addr(i)*64 }
	costVA := func(i int) mem.Addr { return baseAux + mem.Addr(i)*8 }

	// A random permutation forms the pointer chain (a single cycle).
	r := newRNG(seed)
	perm := make([]int32, nodes)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := nodes - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}

	for k := 0; !b.Full(); k = (k + 1) % nodes {
		cur := int(perm[k])
		// Chase: node->next (the dependent, page-missing load).
		b.LoadDep(siteMCF+0, nodeVA(cur))
		// Work on the node's fields (same line: DTLB/L1 hits).
		b.Load(siteMCF+1, nodeVA(cur)+16)
		b.Load(siteMCF+2, nodeVA(cur)+32)
		b.ALU(siteMCF+3, 12)
		// Reduced-cost lookup (random over a smaller table).
		b.Load(siteMCF+4, costVA(r.intn(1<<18)))
		b.ALU(siteMCF+5, 10)
		improve := r.next()%8 == 0
		b.Branch(siteMCF+6, improve)
		if improve {
			b.Store(siteMCF+7, nodeVA(cur)+48)
		}
	}
	return b.Build()
}

// Canneal mimics PARSEC's simulated-annealing placement: pick two random
// elements of a large netlist, read both, evaluate the swap and write both
// back when accepted. Two random pages per ~14 instructions.
func Canneal(n int, seed int64) *trace.Trace {
	b := trace.MustNewBuilder("canneal", n)
	const elems = 1 << 21 // 2M × 64B records = 128MB netlist
	elemVA := func(i int) mem.Addr { return basePool + mem.Addr(i)*64 }
	r := newRNG(seed)
	temperature := 1 << 16
	for !b.Full() {
		// One element is drawn uniformly, the other from the hot region a
		// real annealer's locality-aware swap picker favours.
		a, c := r.intn(elems), r.intn(elems/32)
		b.Load(siteCanneal+0, elemVA(a))
		b.Load(siteCanneal+1, elemVA(c))
		// Cost evaluation walks both elements' net records (same lines)
		// with the routing arithmetic in between.
		b.Load(siteCanneal+2, elemVA(a)+8)
		b.Load(siteCanneal+3, elemVA(c)+8)
		b.ALU(siteCanneal+4, 14)
		accept := int(r.next()%uint64(1<<17)) < temperature
		b.Branch(siteCanneal+5, accept)
		if accept {
			b.Store(siteCanneal+6, elemVA(a))
			b.Store(siteCanneal+7, elemVA(c))
		}
		b.ALU(siteCanneal+8, 8)
		if temperature > 1024 {
			temperature--
		}
	}
	return b.Build()
}

// Xalancbmk mimics the XSLT processor: repeated descents of a DOM-like tree
// whose upper levels are hot (Zipf-style reuse), plus short sequential
// string scans. The footprint slightly exceeds the STLB reach, giving the
// paper's Low STLB-MPKI profile.
func Xalancbmk(n int, seed int64) *trace.Trace {
	b := trace.MustNewBuilder("xalancbmk", n)
	const (
		nnodes   = 5 << 17 // 640K nodes × 32B = 20MB (5120 pages)
		children = 4
		depth    = 9
	)
	nodeVA := func(i int) mem.Addr { return basePool + mem.Addr(i)*32 }
	strVA := func(i int) mem.Addr { return baseAux + mem.Addr(i) }
	r := newRNG(seed)
	for !b.Full() {
		// Descend from the root: node i's children are 4i+1..4i+4, so low
		// indices (upper levels) are revisited constantly and stay cached.
		node := 0
		for d := 0; d < depth && !b.Full(); d++ {
			b.LoadDep(siteXalan+0, nodeVA(node)) // node header (chases the child pointer)
			b.Load(siteXalan+1, nodeVA(node)+8)  // child pointer array
			b.ALU(siteXalan+2, 2)
			k := r.intn(children)
			b.Branch(siteXalan+3, k != 0)
			node = node*children + 1 + k
			if node >= nnodes {
				break
			}
		}
		// Emit a short string-compare scan (sequential bytes → one page).
		s := r.intn(3 << 21)
		for i := 0; i < 6; i++ {
			b.Load(siteXalan+4, strVA(s+i*8))
			b.Branch(siteXalan+5, i < 5)
		}
		b.Store(siteXalan+6, strVA(r.intn(3<<21)))
		b.ALU(siteXalan+7, 4)
	}
	return b.Build()
}

// Micro-kernels used by tests and the quickstart example.

// Stream emits a sequential read/modify/write sweep — a best-case,
// prefetch-friendly pattern.
func Stream(n int, seed int64) *trace.Trace {
	b := trace.MustNewBuilder("stream", n)
	const elems = 1 << 22
	for i := 0; !b.Full(); i = (i + 1) % elems {
		b.Load(1000, basePool+mem.Addr(i)*8)
		b.ALU(1001, 1)
		b.Store(1002, baseAux+mem.Addr(i)*8)
		b.Branch(1003, i+1 < elems)
	}
	return b.Build()
}

// PointerChase emits a dependent random chase — worst case for everything.
func PointerChase(n int, seed int64) *trace.Trace {
	b := trace.MustNewBuilder("chase", n)
	const nodes = 1 << 20
	r := newRNG(seed)
	perm := make([]int32, nodes)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := nodes - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	cur := 0
	for !b.Full() {
		b.LoadDep(1100, basePool+mem.Addr(cur)*64)
		b.ALU(1101, 2)
		b.Branch(1102, true)
		cur = int(perm[cur])
	}
	return b.Build()
}
