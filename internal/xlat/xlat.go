// Package xlat makes the address-translation mechanism a pluggable axis of
// the simulated machine, the way replacement policies already are in
// internal/repl. A Mechanism owns the handling of STLB-missing translations:
// the MMU resolves the L1 TLB and STLB itself, then hands every miss to the
// configured mechanism together with a WalkFn that performs the hardware
// radix walk. Three mechanisms are built in:
//
//   - "atp" (the default): the paper's machinery — every STLB miss goes
//     straight to the page-table walker, whose leaf reads trigger the
//     ATP/TEMPO cache hooks. This is byte-identical to the pre-registry
//     behavior.
//   - "victima": Victima-style cache-as-TLB. STLB-evicted translations are
//     inserted into underutilized L2C/LLC sets as TLB blocks; an STLB miss
//     probes those blocks before falling back to the walker.
//   - "revelator": Revelator-style hash-based speculation. A direct-mapped,
//     partially-tagged prediction table speculatively fetches the replay
//     data line in parallel with the verification walk; tag aliasing causes
//     misspeculation, which squashes the wrong fetch and pays a retry
//     penalty.
//
// Mechanisms must be deterministic: state may depend only on the request
// stream, never on wall-clock time or randomness, so that reports stay
// byte-identical across -jobs values and cache replays. docs/TRANSLATION.md
// is the guide to the data structures, request flows and stats of each
// mechanism.
package xlat

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"atcsim/internal/cache"
	"atcsim/internal/mem"
	"atcsim/internal/tlb"
)

// DefaultName is the mechanism used when none is configured: the paper's
// ATP machinery.
const DefaultName = "atp"

// Outcome reports how one STLB-missing translation was serviced.
type Outcome struct {
	// PA is the full physical address translating the requested VA.
	PA mem.Addr
	// Ready is the cycle at which the translation is available.
	Ready int64
	// LeafSrc is the hierarchy level that provided the leaf translation
	// (the level of the cache-resident TLB block for a victima hit).
	LeafSrc mem.Level
	// Steps is the number of page-table levels the walker read (0 when no
	// walk was needed).
	Steps int
	// Huge reports a 2MB-page translation; PA is then offset within the
	// huge page and the MMU fills the huge-entry TLB arrays.
	Huge bool
	// CacheHit reports that a cache-resident TLB block serviced the miss
	// without a page walk (victima only).
	CacheHit bool
}

// WalkFn performs the hardware page walk for va (ip attributes the walk to
// the triggering instruction) starting at the given cycle. It is provided
// by the MMU; mechanisms call it for fallback and verification walks.
type WalkFn func(va, ip mem.Addr, cycle int64) (Outcome, error)

// Mechanism services STLB-missing translations. Implementations are
// single-threaded, like the rest of the simulator, and must be
// deterministic functions of the request stream.
type Mechanism interface {
	// Name returns the registered mechanism name.
	Name() string
	// Translate resolves va at the given cycle, using walk for any
	// hardware page walks it needs.
	Translate(va, ip mem.Addr, cycle int64, walk WalkFn) (Outcome, error)
	// Stats returns a snapshot of the mechanism's counters.
	Stats() Stats
	// ResetStats zeroes the counters at the end of warmup.
	ResetStats()
}

// Checker is optionally implemented by mechanisms with checkable internal
// state; the MMU's CheckInvariants forwards to it. Victima uses this to
// verify every cache-resident TLB block against the naive-walk oracle.
type Checker interface {
	// CheckInvariants returns an error if mechanism state is inconsistent
	// with the oracle or internally contradictory.
	CheckInvariants() error
}

// Deps are the machine structures a mechanism may hook into. Unused fields
// may be nil; constructors return an error when a required dependency is
// missing.
type Deps struct {
	// L2 and LLC are the cache levels victima stores TLB blocks in and
	// revelator prefetches speculative data into.
	L2, LLC *cache.Cache
	// STLB is hooked by victima to observe entry evictions.
	STLB *tlb.TLB
	// Oracle is the naive radix-walk reference (vm.PageTable.Translate):
	// given a VA it returns the authoritative PA. Used only for invariant
	// checking, never for timing.
	Oracle func(va mem.Addr) (mem.Addr, error)
	// CheckTranslations makes every Translate verify its result against
	// Oracle and panic on mismatch — misspeculation escaping containment
	// becomes a hard failure instead of silent corruption. Wired to
	// Config.CheckInvariants by internal/system.
	CheckTranslations bool
}

// verify panics when translation checking is enabled and pa disagrees with
// the oracle for va. Mechanisms call it on every outcome they produce.
func (d *Deps) verify(name string, va, pa mem.Addr) {
	if !d.CheckTranslations || d.Oracle == nil {
		return
	}
	want, err := d.Oracle(va)
	if err != nil {
		panic(fmt.Sprintf("xlat %s: oracle walk failed for va %#x: %v", name, va, err))
	}
	if want != pa {
		panic(fmt.Sprintf("xlat %s: translation mismatch for va %#x: mechanism %#x, oracle %#x", name, va, pa, want))
	}
}

// Stats aggregates the counters a mechanism exposes. One flat struct is
// shared by all mechanisms so results serialize uniformly; fields unused by
// a mechanism stay zero.
type Stats struct {
	// Requests counts STLB-missing translations handled by the mechanism.
	Requests uint64
	// Walks counts hardware page walks issued (fallback or verification).
	Walks uint64
	// CacheHitsL2 and CacheHitsLLC count victima translations serviced by
	// a cache-resident TLB block at each level.
	CacheHitsL2, CacheHitsLLC uint64
	// TLBBlockInserts counts STLB-evicted entries accepted into a cache;
	// TLBBlockRejects counts evictions the underutilization predictor
	// declined to insert anywhere.
	TLBBlockInserts, TLBBlockRejects uint64
	// Speculations counts revelator table hits that issued a speculative
	// data fetch; SpecCorrect/SpecWrong split them by verification result.
	Speculations uint64
	// SpecCorrect and SpecWrong split resolved speculations by whether the
	// verification walk confirmed the predicted frame.
	SpecCorrect, SpecWrong uint64
	// Trainings counts revelator prediction-table fills after verified
	// walks.
	Trainings uint64
}

// Factory builds a mechanism instance bound to the given machine
// structures.
type Factory func(d Deps) (Mechanism, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
	shared     = map[string]bool{}
)

// Register makes a mechanism available by name (case-insensitive). It
// panics on duplicates, mirroring repl.Register.
func Register(name string, f Factory) {
	name = strings.ToLower(name)
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("xlat: duplicate mechanism " + name)
	}
	registry[name] = f
}

// MarkShared records that the named mechanism's translate path touches
// machine structures shared between cores (victima probes and fills the
// LLC). The barrier engine runs such mechanisms without its worker pool,
// every core on one goroutine; see CoreLocal.
func MarkShared(name string) {
	registryMu.Lock()
	defer registryMu.Unlock()
	shared[strings.ToLower(name)] = true
}

// CoreLocal reports whether the named mechanism confines its hot-path
// state to per-core structures (the per-core L2, STLB and walker), making
// it safe to run on a core's own goroutine under the barrier engine's
// worker pool. The empty name resolves to DefaultName; unknown names report
// false so callers fail safe to one goroutine.
func CoreLocal(name string) bool {
	if name == "" {
		name = DefaultName
	}
	name = strings.ToLower(name)
	registryMu.RLock()
	defer registryMu.RUnlock()
	_, known := registry[name]
	return known && !shared[name]
}

// New builds the named mechanism bound to deps. The empty name resolves to
// DefaultName; unknown names return an error listing the registered set.
func New(name string, d Deps) (Mechanism, error) {
	if name == "" {
		name = DefaultName
	}
	registryMu.RLock()
	f, ok := registry[strings.ToLower(name)]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("xlat: unknown mechanism %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return f(d)
}

// MustNew is New that panics on error.
func MustNew(name string, d Deps) Mechanism {
	m, err := New(name, d)
	if err != nil {
		panic(err)
	}
	return m
}

// Names returns the registered mechanism names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Registered reports whether name (case-insensitive, empty meaning the
// default) resolves to a registered mechanism.
func Registered(name string) bool {
	if name == "" {
		return true
	}
	registryMu.RLock()
	defer registryMu.RUnlock()
	_, ok := registry[strings.ToLower(name)]
	return ok
}
