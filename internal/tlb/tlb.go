// Package tlb implements the translation caching structures in front of the
// page-table walker: set-associative TLBs (DTLB, ITLB, the unified STLB)
// with LRU replacement, and the paging-structure caches (PSCL2..PSCL5) that
// let the walker skip upper page-table levels. The STLB can optionally track
// recall distances for the paper's Fig. 18.
package tlb

import (
	"fmt"

	"atcsim/internal/mem"
	"atcsim/internal/stats"
	"atcsim/internal/telemetry"
)

// Config describes one TLB.
type Config struct {
	Name    string // display name used in reports and panics
	Entries int    // total 4KB-page entries (sets = Entries/Ways)
	Ways    int    // set associativity
	Latency int64  // lookup latency in cycles
	// HugeEntries sizes the fully-associative 2MB-page array (0 disables
	// it; only used when the workload maps huge pages).
	HugeEntries int
}

// Stats counts TLB activity.
type Stats struct {
	Accesses  uint64 // lookups, huge and 4KB combined
	Misses    uint64 // lookups that missed both arrays
	Evictions uint64 // valid 4KB entries displaced by Insert
}

// invalidVPN marks an empty way in the vpns array. Real VPNs are virtual
// addresses shifted right by the page bits, so the all-ones pattern can
// never collide with one.
const invalidVPN = ^mem.Addr(0)

// TLB is a set-associative virtual-page to physical-frame cache with LRU
// replacement. Entries are stored struct-of-arrays, indexed set*ways+way:
// the lookup scan touches only the vpns array (valid bit folded into the
// invalidVPN sentinel), one cache line per 8 ways instead of one per 2.
type TLB struct {
	cfg    Config
	sets   int
	ways   int
	vpns   []mem.Addr
	frames []mem.Addr // physical frame base per way
	stamps []uint64   // LRU stamps per way
	clock  uint64
	st     Stats
	tr     *telemetry.Tracer

	// evictHook, when set, observes every valid 4KB entry displaced by
	// Insert (Victima re-parks these in the data caches). Huge-page
	// evictions are not reported: cache-resident TLB blocks hold 4KB
	// translations only.
	evictHook func(vpn, frame mem.Addr)

	// 2MB-page entries: fully associative, LRU. A flat array with linear
	// search — the array holds at most a few dozen entries, and scanning it
	// beats a map's hashing and per-entry allocations. nil until the first
	// huge-page insert so the common no-huge-pages lookup is one branch.
	huge []hugeEntry

	recall *stats.RecallTracker // nil until EnableRecall
}

type hugeEntry struct {
	hpn   mem.Addr
	frame mem.Addr
	stamp uint64
}

// New builds a TLB; Entries must be divisible by Ways and yield a
// power-of-two set count.
func New(cfg Config) (*TLB, error) {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		return nil, fmt.Errorf("tlb %s: bad geometry entries=%d ways=%d", cfg.Name, cfg.Entries, cfg.Ways)
	}
	sets := cfg.Entries / cfg.Ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("tlb %s: set count %d not a power of two", cfg.Name, sets)
	}
	t := &TLB{
		cfg: cfg, sets: sets, ways: cfg.Ways,
		vpns:   make([]mem.Addr, cfg.Entries),
		frames: make([]mem.Addr, cfg.Entries),
		stamps: make([]uint64, cfg.Entries),
	}
	for i := range t.vpns {
		t.vpns[i] = invalidVPN
	}
	return t, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *TLB {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the configured name.
func (t *TLB) Name() string { return t.cfg.Name }

// Latency returns the lookup latency in cycles.
func (t *TLB) Latency() int64 { return t.cfg.Latency }

// Entries returns the total entry count.
func (t *TLB) Entries() int { return t.cfg.Entries }

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats { return t.st }

// SetEvictHook registers fn to observe every 4KB-entry eviction (nil
// disables). The hook fires synchronously inside Insert, after statistics
// are counted and before the victim is overwritten; it must not re-enter
// this TLB.
func (t *TLB) SetEvictHook(fn func(vpn, frame mem.Addr)) { t.evictHook = fn }

// SetTracer attaches a request-lifecycle tracer (nil disables). Evictions
// that occur inside a sampled request's window are recorded as instant
// events on the MMU lane — set thrash during a tracked walk is visible in
// the trace.
func (t *TLB) SetTracer(tr *telemetry.Tracer) { t.tr = tr }

// ResetStats zeroes counters and restarts recall tracking.
func (t *TLB) ResetStats() {
	t.st = Stats{}
	t.recall.Reset()
}

// EnableRecall switches on recall-distance tracking of 4KB entries
// (Fig. 18), recorded as leaf translations.
func (t *TLB) EnableRecall() { t.recall = stats.NewRecallTracker(t.sets) }

// Recall returns the recall-distance distribution of evicted 4KB entries;
// empty until EnableRecall.
func (t *TLB) Recall() stats.Recall { return t.recall.Recall(mem.ClassTransLeaf) }

func (t *TLB) setOf(vpn mem.Addr) int { return int(vpn) & (t.sets - 1) }

// Lookup searches for the translation of va's page (checking the 2MB array
// first). On a hit it returns the physical frame base — 2MB-aligned for a
// huge hit — and refreshes LRU state.
func (t *TLB) Lookup(va mem.Addr) (frame mem.Addr, hit bool) {
	if t.huge != nil {
		hpn := mem.HugePageNumber(va)
		for i := range t.huge {
			if e := &t.huge[i]; e.hpn == hpn {
				t.st.Accesses++
				t.clock++
				e.stamp = t.clock
				return e.frame, true
			}
		}
	}
	vpn := mem.PageNumber(va)
	set := t.setOf(vpn)
	t.st.Accesses++
	if t.recall != nil {
		t.recall.Observe(set, vpn)
	}
	base := set * t.ways
	for w := 0; w < t.ways; w++ {
		if t.vpns[base+w] == vpn {
			t.clock++
			t.stamps[base+w] = t.clock
			return t.frames[base+w], true
		}
	}
	t.st.Misses++
	return 0, false
}

// Insert fills the translation of va's page, evicting the LRU entry of the
// set when full.
func (t *TLB) Insert(va, frame mem.Addr) {
	vpn := mem.PageNumber(va)
	set := t.setOf(vpn)
	base := set * t.ways
	victim := 0
	var victimStamp uint64 = ^uint64(0)
	for w := 0; w < t.ways; w++ {
		i := base + w
		if t.vpns[i] == vpn {
			// Refresh an existing entry.
			t.frames[i] = frame
			t.clock++
			t.stamps[i] = t.clock
			return
		}
		if t.vpns[i] == invalidVPN {
			victim = w
			victimStamp = 0
		} else if t.stamps[i] < victimStamp {
			victim = w
			victimStamp = t.stamps[i]
		}
	}
	i := base + victim
	if old := t.vpns[i]; old != invalidVPN {
		t.st.Evictions++
		if t.recall != nil {
			t.recall.Evicted(set, old, mem.ClassTransLeaf)
		}
		if t.evictHook != nil {
			t.evictHook(old, t.frames[i])
		}
		if t.tr.Active() {
			t.tr.Instant("tlb", t.cfg.Name+" evict", telemetry.LaneMMU,
				telemetry.IArg("vpn", int64(old)), telemetry.IArg("set", int64(set)))
		}
	}
	t.clock++
	t.vpns[i], t.frames[i], t.stamps[i] = vpn, frame, t.clock
}

// InsertHuge fills the 2MB-page translation of va (frame is the 2MB-aligned
// physical base), evicting the LRU huge entry when the array is full. With
// HugeEntries == 0 the insert is dropped (the structure does not exist).
func (t *TLB) InsertHuge(va, frame mem.Addr) {
	if t.cfg.HugeEntries <= 0 {
		return
	}
	if t.huge == nil {
		t.huge = make([]hugeEntry, 0, t.cfg.HugeEntries)
	}
	key := mem.HugePageNumber(va)
	for i := range t.huge {
		if e := &t.huge[i]; e.hpn == key {
			e.frame = frame
			t.clock++
			e.stamp = t.clock
			return
		}
	}
	if len(t.huge) >= t.cfg.HugeEntries {
		// Evict LRU: stamps are unique, so the victim is deterministic.
		victim := 0
		for i := range t.huge {
			if t.huge[i].stamp < t.huge[victim].stamp {
				victim = i
			}
		}
		hpn := t.huge[victim].hpn
		t.huge[victim] = t.huge[len(t.huge)-1]
		t.huge = t.huge[:len(t.huge)-1]
		t.st.Evictions++
		if t.tr.Active() {
			t.tr.Instant("tlb", t.cfg.Name+" evict-huge", telemetry.LaneMMU,
				telemetry.IArg("hpn", int64(hpn)))
		}
	}
	t.clock++
	t.huge = append(t.huge, hugeEntry{hpn: key, frame: frame, stamp: t.clock})
}

// PSC is the set of paging-structure caches, one fully-associative LRU
// array per page-table level from 2 to 5. PSCL-k maps the VPN prefix of
// levels 5..k to the frame of the level-(k-1) table, letting the walker
// start at level k-1.
type PSC struct {
	caches [mem.PTLevels + 1]*pscLevel // index 2..5 used
	st     PSCStats
}

// PSCStats counts PSC activity per level.
type PSCStats struct {
	Lookups uint64                   // walker probe sequences (one per walk)
	Hits    [mem.PTLevels + 1]uint64 // index by level
}

// pscLevel is one fully-associative level, held as a flat array scanned
// linearly: capacities are tiny (2..32 entries, Table I), where a scan is
// cheaper than map hashing and allocates nothing. LRU stamps are unique, so
// eviction is deterministic.
type pscLevel struct {
	cap   int
	ents  []pscEntry
	clock uint64
}

type pscEntry struct {
	key   uint64
	frame mem.Addr
	stamp uint64
}

// PSCSizes are the Table I capacities: index by level (PSCL2..PSCL5).
type PSCSizes struct {
	L2, L3, L4, L5 int // entries in PSCL2..PSCL5 (0 disables a level)
}

// DefaultPSCSizes match Table I of the paper.
func DefaultPSCSizes() PSCSizes { return PSCSizes{L2: 32, L3: 8, L4: 4, L5: 2} }

// NewPSC builds the paging-structure caches.
func NewPSC(sizes PSCSizes) *PSC {
	p := &PSC{}
	for lvl, n := range [...]int{2: sizes.L2, 3: sizes.L3, 4: sizes.L4, 5: sizes.L5} {
		if lvl < 2 {
			continue
		}
		if n <= 0 {
			n = 1
		}
		p.caches[lvl] = &pscLevel{cap: n, ents: make([]pscEntry, 0, n)}
	}
	return p
}

// Stats returns a snapshot of the PSC counters.
func (p *PSC) Stats() PSCStats { return p.st }

// ResetStats zeroes the counters.
func (p *PSC) ResetStats() { p.st = PSCStats{} }

// Lookup searches all PSC levels in parallel (one-cycle, per Table I) and
// returns the deepest hit: the smallest level k whose entry is present,
// which lets the walker start reading at level k-1. startLevel is
// PTLevels when nothing hits.
func (p *PSC) Lookup(va mem.Addr) (startLevel int) {
	p.st.Lookups++
	for lvl := 2; lvl <= mem.PTLevels; lvl++ {
		c := p.caches[lvl]
		key := mem.VPNPrefix(va, lvl)
		for i := range c.ents {
			if e := &c.ents[i]; e.key == key {
				c.clock++
				e.stamp = c.clock
				p.st.Hits[lvl]++
				return lvl - 1
			}
		}
	}
	return mem.PTLevels
}

// Insert fills the PSC entry for level k (the pointer to va's level-(k-1)
// table).
func (p *PSC) Insert(va mem.Addr, k int, frame mem.Addr) {
	if k < 2 || k > mem.PTLevels {
		return
	}
	c := p.caches[k]
	key := mem.VPNPrefix(va, k)
	for i := range c.ents {
		if e := &c.ents[i]; e.key == key {
			e.frame = frame
			c.clock++
			e.stamp = c.clock
			return
		}
	}
	if len(c.ents) >= c.cap {
		// Evict LRU: stamps are unique, so the victim is deterministic.
		victim := 0
		for i := range c.ents {
			if c.ents[i].stamp < c.ents[victim].stamp {
				victim = i
			}
		}
		c.ents[victim] = c.ents[len(c.ents)-1]
		c.ents = c.ents[:len(c.ents)-1]
	}
	c.clock++
	c.ents = append(c.ents, pscEntry{key: key, frame: frame, stamp: c.clock})
}
