// Package system assembles the full simulated machine — cores, MMUs, page
// tables, cache hierarchy, prefetchers and DRAM — and runs instruction
// traces through it. It is the layer the public atcsim API and the
// experiment runners sit on.
package system

import (
	"fmt"
	"strings"

	"atcsim/internal/cache"
	"atcsim/internal/cpu"
	"atcsim/internal/dram"
	"atcsim/internal/mem"
	"atcsim/internal/telemetry"
	"atcsim/internal/tlb"
	"atcsim/internal/xlat"
)

// Enhancement selects the paper's cumulative configurations of Fig. 14.
type Enhancement int

// Enhancement levels; each includes all previous ones.
const (
	// Baseline: DRRIP at the L2C, SHiP at the LLC (the paper's strong
	// baseline).
	Baseline Enhancement = iota
	// TDRRIP adds translation-conscious DRRIP at the L2C.
	TDRRIP
	// TSHiP adds translation-conscious SHiP (with NewSign) at the LLC.
	TSHiP
	// ATP adds the address-translation-triggered replay prefetcher at the
	// L2C and LLC.
	ATP
	// TEMPO additionally prefetches the replay line from the DRAM
	// controller when the translation misses the whole hierarchy.
	TEMPO
)

// String names the level.
func (e Enhancement) String() string {
	switch e {
	case Baseline:
		return "baseline"
	case TDRRIP:
		return "t-drrip"
	case TSHiP:
		return "t-ship"
	case ATP:
		return "atp"
	case TEMPO:
		return "tempo"
	}
	return "unknown"
}

// Enhancements lists all levels in cumulative order.
func Enhancements() []Enhancement { return []Enhancement{Baseline, TDRRIP, TSHiP, ATP, TEMPO} }

// Config describes one simulated machine and run.
type Config struct {
	// Instructions is the measured instruction count per core; Warmup runs
	// before statistics reset.
	Instructions int
	Warmup       int
	Seed         int64

	// PhysBits sizes physical memory (2^PhysBits bytes) shared by all cores.
	PhysBits int

	CPU  cpu.Config
	DTLB tlb.Config
	ITLB tlb.Config
	STLB tlb.Config
	PSC  tlb.PSCSizes

	L1I cache.Config
	L1D cache.Config
	L2  cache.Config
	LLC cache.Config

	DRAM dram.Config

	// L1DPrefetcher and L2Prefetcher name data prefetchers ("none",
	// "nextline", "ipcp" / "spp", "bingo", "isb").
	L1DPrefetcher string
	L2Prefetcher  string

	// PrefetchDegree, when positive, overrides the data prefetchers' default
	// degree (candidate lines emitted per training event) for prefetchers
	// that honor one, e.g. "nextline". Zero keeps each prefetcher's default
	// and is omitted from JSON, so existing run keys are unchanged.
	PrefetchDegree int `json:",omitempty"`

	// TEMPO enables the DRAM-controller replay prefetch (LLC translation
	// misses).
	TEMPO bool

	// TrackRecall enables recall-distance histograms at the L2, LLC and
	// STLB (Figs. 5, 7, 18); it costs memory and time, so experiments turn
	// it on only when needed.
	TrackRecall bool

	// ReplayIssueDelay is the pipeline-replay cost of an STLB-missing load:
	// after the walk completes, the STLB and DTLB fill and the load
	// re-issues from the scheduler before its data access reaches the L1D.
	// This window is what ATP's prefetch hides.
	ReplayIssueDelay int64

	// PageWalkers is the number of concurrent page-table walks the MMU
	// sustains (Sunny Cove has two).
	PageWalkers int

	// Mechanism selects the translation mechanism servicing STLB misses:
	// "atp" (default, the paper's machinery), "victima" (cache-as-TLB) or
	// "revelator" (hash-based speculation) — see xlat.Names() and
	// docs/TRANSLATION.md. Empty resolves to "atp" and is byte-identical
	// to the pre-registry simulator.
	Mechanism string

	// Timing selects the hierarchy timing engine: "analytic" (default, the
	// latency-composition model) or "queued" (bounded per-level RQ/WQ/PQ/VAPQ
	// deques with per-cycle stepping and backpressure) — see TimingModels()
	// and the DESIGN.md "Queued timing" section. Empty resolves to "analytic"
	// and is byte-identical to the pre-switch simulator; omitempty keeps the
	// canonical config JSON — and therefore experiment run keys and cached
	// results — unchanged for analytic runs.
	Timing string `json:",omitempty"`

	// Queues, when non-nil, overrides the queued engine's deque geometry at
	// every cache level (unset fields take package defaults); nil selects
	// cache.DefaultQueueConfig per level. Ignored under analytic timing and
	// omitted from JSON when nil, so analytic run keys are unchanged.
	Queues *cache.QueueConfig `json:",omitempty"`

	// NoScatterFrames disables the OS frame-scatter model: data pages get
	// physically contiguous frames (artificially good DRAM row locality) —
	// an ablation knob, not a realistic configuration.
	NoScatterFrames bool

	// HugePages maps all data regions with 2MB pages (transparent huge
	// pages, always-on) instead of 4KB pages. Leaf PTEs then live at page-
	// table level 2 and TLBs use their 2MB arrays; STLB pressure largely
	// disappears — the future-work scenario that bounds the paper's
	// technique.
	HugePages bool

	// CheckInvariants audits the structural invariants of every model
	// (duplicate cache tags, MSHR occupancy, policy counter ranges, TLB
	// duplicates, DRAM slot overbooking) periodically during the run and
	// once at the end. A violation panics with a description — this is a
	// validation trap for the differential harness and debugging, not a
	// recoverable condition. Building with -tags atcsim_invariants forces
	// it on for every run and additionally compiles per-access request
	// audits into the cache path.
	CheckInvariants bool

	// Telemetry, when non-nil, attaches the observability layer (sampled
	// request-lifecycle tracer, interval heartbeat, progress counters) to
	// the run. Telemetry is a pure observer: simulated timing is
	// bit-identical with or without it. Excluded from JSON results.
	Telemetry *telemetry.Hub `json:"-"`

	// SimJobs caps the worker goroutines the deterministic barrier engine
	// runs multi-core simulations on (each core a coroutine, synchronized
	// by cycle-window barriers with shared LLC/DRAM requests resolved in
	// canonical core order — see DESIGN.md §10). 0 uses one worker per
	// available CPU; 1 resumes every core on the caller's goroutine.
	// Reports are byte-identical for every value, which is why the knob is
	// excluded from JSON: it must never influence experiment run keys or
	// cached results. Runs with a request tracer attached, a shared
	// mechanism (victima) or an L1D prefetcher — whose step path touches
	// shared state — use one worker whatever the value. Single-core and SMT
	// machines are one scheduling unit and ignore it.
	SimJobs int `json:"-"`
}

// DefaultConfig reproduces Table I: a Sunny-Cove-like core with 48KB L1D,
// 512KB L2 (DRRIP), 2MB LLC (SHiP), 64-entry DTLB, 2048-entry STLB and one
// DDR5 channel.
func DefaultConfig() Config {
	return Config{
		Instructions: 400_000,
		Warmup:       100_000,
		Seed:         1,
		PhysBits:     33, // 8GB
		CPU:          cpu.DefaultConfig(),
		DTLB:         tlb.Config{Name: "DTLB", Entries: 64, Ways: 4, Latency: 1, HugeEntries: 32},
		ITLB:         tlb.Config{Name: "ITLB", Entries: 64, Ways: 4, Latency: 1, HugeEntries: 8},
		STLB:         tlb.Config{Name: "STLB", Entries: 2048, Ways: 16, Latency: 8, HugeEntries: 1024},
		PSC:          tlb.DefaultPSCSizes(),
		L1I: cache.Config{
			Name: "L1I", Level: mem.LvlL1D, SizeBytes: 32 << 10, Ways: 8,
			Latency: 4, MSHRs: 8, Policy: "lru",
		},
		L1D: cache.Config{
			Name: "L1D", Level: mem.LvlL1D, SizeBytes: 48 << 10, Ways: 12,
			Latency: 5, MSHRs: 16, Policy: "lru",
		},
		L2: cache.Config{
			Name: "L2C", Level: mem.LvlL2, SizeBytes: 512 << 10, Ways: 8,
			Latency: 10, MSHRs: 32, Policy: "drrip",
		},
		LLC: cache.Config{
			Name: "LLC", Level: mem.LvlLLC, SizeBytes: 2 << 20, Ways: 16,
			Latency: 20, MSHRs: 64, Policy: "ship",
		},
		DRAM:             dram.DefaultConfig(),
		L1DPrefetcher:    "none",
		L2Prefetcher:     "none",
		ReplayIssueDelay: 30,
		PageWalkers:      2,
	}
}

// Apply configures the cumulative enhancement level on top of the current
// policies (Fig. 14's T-DRRIP → +T-SHiP → +ATP → +TEMPO ladder).
func (c *Config) Apply(e Enhancement) {
	c.L2.Policy = "drrip"
	c.LLC.Policy = "ship"
	c.L2.ATP, c.LLC.ATP, c.TEMPO = false, false, false
	if e >= TDRRIP {
		c.L2.Policy = "t-drrip"
	}
	if e >= TSHiP {
		c.LLC.Policy = "t-ship"
	}
	if e >= ATP {
		c.L2.ATP = true
		c.LLC.ATP = true
	}
	if e >= TEMPO {
		c.TEMPO = true
	}
}

// Validate reports configuration errors early.
func (c *Config) Validate() error {
	if c.Instructions <= 0 {
		return fmt.Errorf("system: Instructions must be positive")
	}
	if c.Warmup < 0 {
		return fmt.Errorf("system: negative warmup")
	}
	if c.PhysBits < 22 || c.PhysBits > 48 {
		return fmt.Errorf("system: PhysBits %d out of range", c.PhysBits)
	}
	if !xlat.Registered(c.Mechanism) {
		return fmt.Errorf("system: unknown translation mechanism %q (have %s)",
			c.Mechanism, strings.Join(xlat.Names(), ", "))
	}
	if !TimingRegistered(c.Timing) {
		return fmt.Errorf("system: unknown timing model %q (have %s)",
			c.Timing, strings.Join(TimingModels(), ", "))
	}
	return nil
}
