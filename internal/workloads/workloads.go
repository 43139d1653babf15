// Package workloads synthesizes the paper's benchmark suite. The SPEC
// CPU2017 / PARSEC / Ligra traces the paper simulates are not available, so
// each benchmark is re-created as a Go kernel executing the same algorithm
// on synthetic inputs and emitting the instruction/address stream it would
// produce (see DESIGN.md §2 for the substitution argument). Footprints are
// sized so that the footprint-to-STLB-reach and footprint-to-LLC ratios sit
// in the paper's regime, and the benchmarks fall into the same Low/Medium/
// High STLB-MPKI categories as the paper's Table II.
package workloads

import (
	"fmt"
	"sort"

	"atcsim/internal/mem"
	"atcsim/internal/trace"
)

// Virtual-address bases for the synthetic arrays. Each logical array lives
// in its own region so that streams are distinguishable and pages do not
// alias across arrays.
const (
	baseOffsets mem.Addr = 0x1_0000_0000
	baseEdges   mem.Addr = 0x2_0000_0000
	baseProp1   mem.Addr = 0x3_0000_0000
	baseProp2   mem.Addr = 0x4_0000_0000
	basePool    mem.Addr = 0x5_0000_0000
	baseAux     mem.Addr = 0x6_0000_0000
)

// Category is the STLB-MPKI class used for SMT/multicore mixes (Table II).
type Category string

// Categories per the paper: Low ≤ 10 STLB MPKI, Medium 11–25, High > 25.
const (
	Low    Category = "Low"
	Medium Category = "Medium"
	High   Category = "High"
)

// Spec describes one benchmark.
type Spec struct {
	Name     string
	Suite    string
	Category Category
	// Build generates a trace of approximately n instructions.
	Build func(n int, seed int64) *trace.Trace
	// OnGraph, set for the Ligra kernels only, generates the trace on the
	// given input graph; their Build runs it on the process-wide one.
	OnGraph func(g *Graph, n int, seed int64) *trace.Trace
}

var specs = map[string]Spec{}

func register(s Spec) { specs[s.Name] = s }

func init() {
	register(Spec{Name: "xalancbmk", Suite: "SPEC CPU2017", Category: Low, Build: Xalancbmk})
	register(ligra("tc", Medium, tc))
	register(Spec{Name: "canneal", Suite: "PARSEC", Category: Medium, Build: Canneal})
	register(ligra("mis", Medium, mis))
	register(Spec{Name: "mcf", Suite: "SPEC CPU2017", Category: Medium, Build: MCF})
	register(ligra("bf", High, bf))
	register(ligra("radii", High, radii))
	register(ligra("cc", High, cc))
	register(ligra("pr", High, pr))
}

// ligra is the Spec of a Ligra kernel.
func ligra(name string, c Category, kernel func(g *Graph, n int, seed int64) *trace.Trace) Spec {
	return Spec{Name: name, Suite: "Ligra", Category: c, OnGraph: kernel,
		Build: func(n int, seed int64) *trace.Trace { return kernel(sharedLigraGraph(), n, seed) }}
}

// Names returns the benchmark names in the paper's Table II order
// (ascending STLB MPKI).
func Names() []string {
	return []string{"xalancbmk", "tc", "canneal", "mis", "mcf", "bf", "radii", "cc", "pr"}
}

// All returns the specs in Table II order.
func All() []Spec {
	out := make([]Spec, 0, len(specs))
	for _, n := range Names() {
		out = append(out, specs[n])
	}
	return out
}

// ByName looks a benchmark up.
func ByName(name string) (Spec, error) {
	s, ok := specs[name]
	if !ok {
		known := Names()
		sort.Strings(known)
		return Spec{}, fmt.Errorf("workloads: unknown benchmark %q (have %v)", name, known)
	}
	return s, nil
}

// ByCategory returns the names in a category, Table II order.
func ByCategory(c Category) []string {
	var out []string
	for _, n := range Names() {
		if specs[n].Category == c {
			out = append(out, n)
		}
	}
	return out
}

// rng is a splitmix64 generator: tiny, fast and deterministic.
type rng struct{ s uint64 }

// golden is splitmix64's counter increment.
const golden = 0x9E3779B97F4A7C15

func newRNG(seed int64) *rng { return &rng{s: uint64(seed)*golden + 1} }

func (r *rng) next() uint64 {
	r.s += golden
	return mix(r.s)
}

// mix is splitmix64's output function of the counter.
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// at returns the value the k-th next call from here (counting from 0) would
// draw, without advancing the stream: splitmix64 is counter-based, so any
// draw is a function of its position alone.
func (r *rng) at(k uint64) uint64 { return mix(r.s + (k+1)*golden) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// skew maps one raw draw x to a power-law-biased value in [0, n): small
// values are much more likely, approximating the in-degree skew of
// web/social graphs (CDF (v/n)^(1/6): the hottest 1%% of vertices absorb
// ~46%% of edges, the locality that gives leaf-PTE lines their short recall
// distances).
func skew(x uint64, n int) int {
	u := float64(x>>11) / (1 << 53)
	u3 := u * u * u
	v := int(u3 * u3 * float64(n))
	if v >= n {
		v = n - 1
	}
	return v
}
