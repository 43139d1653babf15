// Package trace defines the instruction-stream representation consumed by
// the simulation engine and a builder used by the synthetic workload
// kernels in internal/workloads.
package trace

import (
	"fmt"

	"atcsim/internal/mem"
)

// OpClass is the coarse instruction class the timing model distinguishes.
type OpClass uint8

// Instruction classes.
const (
	OpALU OpClass = iota
	OpLoad
	OpStore
	OpBranch
)

// String names the class.
func (o OpClass) String() string {
	switch o {
	case OpALU:
		return "alu"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBranch:
		return "branch"
	}
	return "unknown"
}

// Inst is one dynamic instruction.
type Inst struct {
	// IP is the instruction pointer (static code location).
	IP mem.Addr
	// Addr is the virtual data address for loads and stores.
	Addr mem.Addr
	// Op is the instruction class.
	Op OpClass
	// Taken is the branch outcome for OpBranch.
	Taken bool
	// Dep marks a load whose address depends on the previous load's data
	// (pointer chasing): it cannot issue before that load completes.
	Dep bool
}

// Trace is a finite dynamic instruction stream. Engines may replay it
// cyclically when a run needs more instructions than the trace holds.
type Trace struct {
	Name  string
	Insts []Inst
}

// Stats summarizes a trace's composition.
type Stats struct {
	Total, Loads, Stores, Branches, ALU int
	// Pages is the number of distinct virtual pages touched by data
	// accesses — the footprint driving STLB pressure.
	Pages int
}

// Stats computes the composition summary.
func (t *Trace) Stats() Stats {
	var s Stats
	pages := make(map[mem.Addr]struct{})
	for i := range t.Insts {
		in := &t.Insts[i]
		s.Total++
		switch in.Op {
		case OpLoad:
			s.Loads++
			pages[mem.PageNumber(in.Addr)] = struct{}{}
		case OpStore:
			s.Stores++
			pages[mem.PageNumber(in.Addr)] = struct{}{}
		case OpBranch:
			s.Branches++
		default:
			s.ALU++
		}
	}
	s.Pages = len(pages)
	return s
}

// Builder accumulates instructions up to a limit. Workload kernels check
// Full in their outer loops and stop emitting when the budget is reached.
// Every kernel emits until Full, so the builder allocates the whole budget
// once and Build hands that array to the trace without copying it.
type Builder struct {
	name   string
	ipBase mem.Addr
	insts  []Inst // cap is the limit
}

// NewBuilder creates a builder for a trace of at most limit instructions.
func NewBuilder(name string, limit int) (*Builder, error) {
	if limit <= 0 {
		return nil, fmt.Errorf("trace: non-positive limit %d", limit)
	}
	return &Builder{
		name:   name,
		ipBase: 0x40_0000,
		insts:  make([]Inst, 0, limit),
	}, nil
}

// MustNewBuilder is NewBuilder that panics on error.
func MustNewBuilder(name string, limit int) *Builder {
	b, err := NewBuilder(name, limit)
	if err != nil {
		panic(err)
	}
	return b
}

// Full reports whether the instruction budget is exhausted.
func (b *Builder) Full() bool { return len(b.insts) == cap(b.insts) }

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.insts) }

// ip converts a small static site label into a distinct instruction
// pointer. Distinct sites get distinct IPs, which is what IP-signature
// policies (SHiP, Hawkeye, IPCP) key on.
func (b *Builder) ip(site int) mem.Addr { return b.ipBase + mem.Addr(site)*8 }

func (b *Builder) emit(i Inst) {
	if b.Full() {
		return
	}
	b.insts = append(b.insts, i)
}

// ALU emits n arithmetic instructions at the given site.
func (b *Builder) ALU(site, n int) {
	for k := 0; k < n; k++ {
		b.emit(Inst{IP: b.ip(site), Op: OpALU})
	}
}

// Load emits a load of va at the given site.
func (b *Builder) Load(site int, va mem.Addr) {
	b.emit(Inst{IP: b.ip(site), Op: OpLoad, Addr: va})
}

// LoadDep emits a load whose address was produced by the previous load
// (a dependent, pointer-chasing access).
func (b *Builder) LoadDep(site int, va mem.Addr) {
	b.emit(Inst{IP: b.ip(site), Op: OpLoad, Addr: va, Dep: true})
}

// Store emits a store to va at the given site.
func (b *Builder) Store(site int, va mem.Addr) {
	b.emit(Inst{IP: b.ip(site), Op: OpStore, Addr: va})
}

// Branch emits a conditional branch with the given outcome.
func (b *Builder) Branch(site int, taken bool) {
	b.emit(Inst{IP: b.ip(site), Op: OpBranch, Taken: taken})
}

// Build finalizes the trace. The trace takes over the builder's array, so
// the builder must not be used afterwards.
func (b *Builder) Build() *Trace {
	return &Trace{Name: b.name, Insts: b.insts}
}
