// Package cache implements a set-associative cache level with MSHRs, a
// pluggable replacement policy, write-back/write-allocate semantics, an
// optional hardware prefetcher, recall-distance tracking and the paper's
// ATP (address-translation-triggered prefetching) hook.
//
// Timing uses latency composition: Access returns the cycle at which the
// requested line is available. Misses recurse into the lower level; blocks
// are installed immediately with a fill timestamp, so a later access that
// arrives before the fill completes models an MSHR merge by returning the
// outstanding fill's ready cycle.
package cache

import (
	"fmt"
	"math"

	"atcsim/internal/mem"
	"atcsim/internal/repl"
	"atcsim/internal/stats"
	"atcsim/internal/telemetry"
)

// Lower is the next level in the hierarchy (another Cache or a DRAM
// adapter).
type Lower interface {
	// Access services req issued at cycle and reports when the data is
	// available and which level ultimately provided it.
	Access(req *mem.Request, cycle int64) Result
}

// Result is the outcome of a hierarchy access.
type Result struct {
	// Ready is the cycle at which the requested line is available to the
	// requester.
	Ready int64
	// Src is the hierarchy level that serviced the request.
	Src mem.Level
}

// Candidate is a prefetch suggestion from a Prefetcher: a physical line
// address and an issue delay relative to the triggering access.
type Candidate struct {
	Line  mem.Addr
	Delay int64
}

// Prefetcher reacts to demand accesses observed at a cache and suggests
// prefetch candidates. Implementations live in internal/prefetch.
type Prefetcher interface {
	Name() string
	// Train observes a demand access (hit or miss) and appends prefetch
	// candidates to out, returning the extended slice. The cache passes a
	// reusable scratch buffer, so implementations must not retain out (or
	// req) past the call — this is what keeps the steady-state training
	// path allocation-free.
	Train(req *mem.Request, hit bool, cycle int64, out []Candidate) []Candidate
}

// Config describes one cache level.
type Config struct {
	Name      string
	Level     mem.Level
	SizeBytes int
	Ways      int
	Latency   int64 // lookup/hit latency in cycles
	MSHRs     int
	Policy    string // replacement policy name (see repl.Names)

	// ATP enables the paper's address-translation-triggered prefetcher at
	// this level: a leaf-PTE hit prefetches the replay line into this cache
	// with distant insertion priority.
	ATP bool
	// IdealTranslations gives leaf-level translation requests a guaranteed
	// hit latency at this level (Fig. 2 limit study); the miss still
	// propagates downward to consume bandwidth.
	IdealTranslations bool
	// IdealReplays does the same for replay loads.
	IdealReplays bool
}

// Stats aggregates the counters a cache level exposes.
type Stats struct {
	stats.ClassCounters
	// Evictions counts blocks evicted, DeadEvictions those evicted without
	// any reuse after fill, split by the class that filled the block
	// (Section III: >95% of replay blocks are dead).
	Evictions     [mem.NumClasses]uint64
	DeadEvictions [mem.NumClasses]uint64
	Writebacks    uint64
	// Prefetch effectiveness.
	PrefIssued  uint64 // prefetches that allocated a fill here
	PrefUseful  uint64 // demand hits on a prefetched block
	PrefLate    uint64 // demand merged with an in-flight prefetch
	PrefDropped uint64 // prefetches dropped on saturated MSHRs
	// MSHR merges (accesses that found their line in flight).
	Merges uint64
	// Bypasses counts fills skipped by a dead-block-bypassing policy.
	Bypasses uint64
	// LatencySum accumulates, per class, the cycles between issue and data
	// availability for demand and translation accesses (AvgLatency derives
	// the mean).
	LatencySum [mem.NumClasses]uint64
	// Victima TLB-block activity (zero unless EnableTLBBlocks was called):
	// entries parked by the STLB eviction hook, cache-as-TLB lookup hits,
	// and TLB blocks displaced by later fills. TLB blocks are excluded from
	// the per-class eviction and recall statistics above — those count
	// memory blocks only.
	TLBInserts   uint64
	TLBHits      uint64
	TLBEvictions uint64
}

// AvgLatency returns the mean access latency observed for a class.
func (s *Stats) AvgLatency(c mem.Class) float64 {
	if s.Access[c] == 0 {
		return 0
	}
	return float64(s.LatencySum[c]) / float64(s.Access[c])
}

// invalidTag marks an empty way in the tags array. Real tags are physical
// line addresses (PhysBits ≤ 48 → below 2^42) or Victima's synthetic
// tlbLineBit|VPN lines, so the all-ones pattern can never collide.
const invalidTag = ^mem.Addr(0)

// blockMeta holds the cold per-way flags in a struct-of-arrays layout: the
// hot lookup state (tags, fill times) lives in dedicated flat arrays so a
// set scan touches 8 bytes per way instead of a full 48-byte block struct.
type blockMeta struct {
	dirty    bool
	reused   bool
	prefetch bool      // filled by a prefetch and not yet demanded
	tlb      bool      // Victima TLB block: payload holds a frame, not data
	class    mem.Class // class of the fill that brought the block in
	fillSrc  mem.Level
}

// Cache is one level of the hierarchy. Not safe for concurrent use.
type Cache struct {
	cfg  Config
	sets int
	ways int
	// Set/way metadata in struct-of-arrays layout, indexed set*ways+way.
	// tags combines the valid bit and line address (invalidTag = empty);
	// find() and chooseWay() scan only tags, so a 16-way probe reads two
	// cache lines instead of twelve.
	tags    []mem.Addr
	fillAt  []int64 // fill-completion cycle per way (MSHR merge window)
	meta    []blockMeta
	payload []mem.Addr // Victima frame per way; nil until EnableTLBBlocks
	policy  repl.Policy
	bypass  repl.Bypasser // policy when it can bypass fills, else nil
	lower   Lower
	lowerC  *Cache // lower when it is another *Cache: direct-call fast path
	pf      Prefetcher

	// Outstanding miss completion times for the MSHR occupancy model.
	mshr []int64

	// Hot-path scratch state. The simulator is single-threaded and none of
	// the consumers (policies, lower levels, the tracer) retain pointers
	// past the call, so one instance of each per cache level suffices; the
	// writeback/prefetch requests a level originates use its own scratch
	// while the caller's request stays live (see DESIGN.md "Performance").
	acc          repl.Access
	wbReq        mem.Request
	pfReq        mem.Request
	cands        []Candidate
	evictableFn  func(int) bool // pre-bound chooseWay filter (no per-miss closure)
	victimBase   int
	victimIssued int64

	// Victima cache-as-TLB state: setUnder is the per-set 2-bit saturating
	// underutilization predictor, trained on evictions (dead eviction →
	// up, reused eviction → down) and consulted before parking a TLB
	// block. nil until EnableTLBBlocks.
	setUnder []uint8

	// pfSink, when set, intercepts Prefetch calls (the queued engine routes
	// them through its PQ/VAPQ deques instead of issuing synchronously). nil
	// in the analytic engine, so the default path is unchanged.
	pfSink func(line mem.Addr, cycle int64, distant bool) int64

	st     Stats
	recall *stats.RecallTracker // nil until EnableRecall
	tr     *telemetry.Tracer
}

// New builds a cache level on top of lower. It returns an error for
// malformed geometry or unknown policy names.
func New(cfg Config, lower Lower) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: invalid geometry size=%d ways=%d", cfg.Name, cfg.SizeBytes, cfg.Ways)
	}
	sets := cfg.SizeBytes / (mem.LineSize * cfg.Ways)
	if sets == 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d is not a power of two", cfg.Name, sets)
	}
	if lower == nil {
		return nil, fmt.Errorf("cache %s: nil lower level", cfg.Name)
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 16
	}
	if cfg.Policy == "" {
		cfg.Policy = "lru"
	}
	pol, err := repl.New(cfg.Policy, sets, cfg.Ways)
	if err != nil {
		return nil, fmt.Errorf("cache %s: %w", cfg.Name, err)
	}
	c := &Cache{
		cfg:    cfg,
		sets:   sets,
		ways:   cfg.Ways,
		tags:   make([]mem.Addr, sets*cfg.Ways),
		fillAt: make([]int64, sets*cfg.Ways),
		meta:   make([]blockMeta, sets*cfg.Ways),
		policy: pol,
		lower:  lower,
		mshr:   make([]int64, 0, cfg.MSHRs),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	if lc, ok := lower.(*Cache); ok {
		c.lowerC = lc
	}
	c.bypass, _ = pol.(repl.Bypasser)
	c.evictableFn = func(w int) bool {
		return c.fillAt[c.victimBase+w] <= c.victimIssued
	}
	return c, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config, lower Lower) *Cache {
	c, err := New(cfg, lower)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the configured cache name.
func (c *Cache) Name() string { return c.cfg.Name }

// Level returns the hierarchy level of this cache.
func (c *Cache) Level() mem.Level { return c.cfg.Level }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// PolicyName returns the replacement policy in use.
func (c *Cache) PolicyName() string { return c.policy.Name() }

// AttachPrefetcher connects a hardware prefetcher trained by demand accesses
// at this level.
func (c *Cache) AttachPrefetcher(p Prefetcher) { c.pf = p }

// Prefetcher returns the attached prefetcher, or nil.
func (c *Cache) Prefetcher() Prefetcher { return c.pf }

// SetTracer attaches a request-lifecycle tracer (nil disables): lookups that
// belong to a sampled request become spans on the cache lane.
func (c *Cache) SetTracer(t *telemetry.Tracer) { c.tr = t }

// traceAccess emits one lookup span for a sampled request.
func (c *Cache) traceAccess(req *mem.Request, start, end int64, src mem.Level, outcome string) {
	c.tr.SpanOn(req.Core, "cache", c.cfg.Name, telemetry.LaneCache, start, end,
		telemetry.SArg("class", req.Class().String()),
		telemetry.SArg("outcome", outcome),
		telemetry.SArg("src", src.String()))
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.st }

// ResetStats zeroes counters and restarts recall tracking at the end of
// warmup.
func (c *Cache) ResetStats() {
	c.st = Stats{}
	c.recall.Reset()
}

// EnableRecall switches on recall-distance tracking (Figs. 5 and 7) of the
// blocks filled as leaf translations and replay loads.
func (c *Cache) EnableRecall() { c.recall = stats.NewRecallTracker(c.sets) }

// Recall returns the recall-distance distribution of blocks filled as
// class cl (ClassTransLeaf or ClassReplay); empty until EnableRecall.
func (c *Cache) Recall(cl mem.Class) stats.Recall { return c.recall.Recall(cl) }

func (c *Cache) setOf(line mem.Addr) int { return int(line) & (c.sets - 1) }

func (c *Cache) find(set int, line mem.Addr) int {
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line {
			return w
		}
	}
	return -1
}

// mshrAdmit returns the earliest cycle at which a new miss can be issued,
// given the MSHR occupancy. Completed entries are pruned lazily.
func (c *Cache) mshrAdmit(cycle int64) int64 {
	live := c.mshr[:0]
	for _, r := range c.mshr {
		if r > cycle {
			live = append(live, r)
		}
	}
	c.mshr = live
	if len(c.mshr) < c.cfg.MSHRs {
		return cycle
	}
	// Full: wait for the earliest outstanding fill.
	minI := 0
	for i, r := range c.mshr {
		if r < c.mshr[minI] {
			minI = i
		}
	}
	start := c.mshr[minI]
	c.mshr[minI] = c.mshr[len(c.mshr)-1]
	c.mshr = c.mshr[:len(c.mshr)-1]
	return start
}

func (c *Cache) mshrRecord(ready int64) {
	c.mshr = append(c.mshr, ready)
}

// mshrFull reports whether all MSHRs are occupied at the given cycle.
func (c *Cache) mshrFull(cycle int64) bool {
	live := c.mshr[:0]
	for _, r := range c.mshr {
		if r > cycle {
			live = append(live, r)
		}
	}
	c.mshr = live
	return len(c.mshr) >= c.cfg.MSHRs
}

// mshrFreeAt returns the first cycle at or after cycle at which a new miss
// finds a free MSHR. Unlike mshrFull it does not prune, so the queued
// engine can look ahead without touching the occupancy list.
func (c *Cache) mshrFreeAt(cycle int64) int64 {
	busy, release := 0, int64(math.MaxInt64)
	for _, r := range c.mshr {
		if r > cycle {
			busy++
			release = min(release, r)
		}
	}
	if busy < c.cfg.MSHRs {
		return cycle
	}
	return release
}

// access fills the cache's scratch policy access for req. The returned
// pointer is valid until the next access() call on this cache; policies
// consume it synchronously and never retain it.
func (c *Cache) access(req *mem.Request) *repl.Access {
	c.acc = repl.Access{
		IP:    req.IP,
		Line:  mem.LineAddr(req.Addr),
		Class: req.Class(),
		Kind:  req.Kind,
	}
	return &c.acc
}

// lowerAccess forwards a request to the next level, calling another *Cache
// directly (devirtualized) when possible.
func (c *Cache) lowerAccess(req *mem.Request, cycle int64) Result {
	if c.lowerC != nil {
		return c.lowerC.Access(req, cycle)
	}
	return c.lower.Access(req, cycle)
}

// Access services a request issued at the given cycle. Writebacks are
// absorbed (write-allocate) and return immediately.
func (c *Cache) Access(req *mem.Request, cycle int64) Result {
	if checksEnabled {
		checkRequest(req)
	}
	line := mem.LineAddr(req.Addr)
	set := c.setOf(line)
	cl := req.Class()

	if req.Kind == mem.Writeback {
		c.absorbWriteback(set, line, cycle, req)
		return Result{Ready: cycle + c.cfg.Latency, Src: c.cfg.Level}
	}

	demand := req.Kind == mem.Load || req.Kind == mem.Store || req.Kind == mem.IFetch
	if c.recall != nil && (demand || req.Kind == mem.Translation) {
		c.recall.Observe(set, line)
	}

	w := c.find(set, line)
	if w >= 0 {
		i := set*c.ways + w
		m := &c.meta[i]
		c.st.Record(cl, false)
		c.policy.Hit(set, w, c.access(req))
		if req.Kind == mem.Store {
			m.dirty = true
		}
		if m.prefetch && demand {
			m.prefetch = false
			if c.fillAt[i] > cycle {
				c.st.PrefLate++
			} else {
				c.st.PrefUseful++
			}
		}
		if fa := c.fillAt[i]; fa > cycle {
			// MSHR merge with the outstanding fill.
			c.st.Merges++
			c.st.LatencySum[cl] += uint64(fa - cycle)
			if c.tr.Active() {
				c.traceAccess(req, cycle, fa, m.fillSrc, "merge")
			}
			return Result{Ready: fa, Src: m.fillSrc}
		}
		m.reused = true
		ready := cycle + c.cfg.Latency
		c.st.LatencySum[cl] += uint64(ready - cycle)
		if c.tr.Active() {
			c.traceAccess(req, cycle, ready, c.cfg.Level, "hit")
		}
		c.maybeATP(req, ready)
		c.maybeTrain(req, true, cycle)
		return Result{Ready: ready, Src: c.cfg.Level}
	}

	// Miss.
	c.st.Record(cl, true)

	ideal := (c.cfg.IdealTranslations && req.IsLeaf()) ||
		(c.cfg.IdealReplays && cl == mem.ClassReplay)

	// Page-walker reads travel through the walker's own buffers (ChampSim
	// models a private PTW queue), so they are not throttled by — and do
	// not occupy — the demand MSHRs.
	start := cycle
	if req.Kind != mem.Translation {
		start = c.mshrAdmit(cycle)
	}
	res := c.lowerAccess(req, start+c.cfg.Latency)
	a := c.access(req)
	if c.bypass != nil && c.bypass.ShouldBypass(a) {
		// Dead-block bypass (CbPred-style): forward without allocating.
		c.st.Bypasses++
	} else {
		c.fillWith(set, line, a, req, cycle, res)
	}
	if req.Kind != mem.Translation {
		c.mshrRecord(res.Ready)
	}
	c.maybeTrain(req, false, cycle)

	if ideal {
		// Limit study: respond with the hit latency; the real miss has
		// still consumed bandwidth below (paper's methodology for Fig. 2).
		c.st.LatencySum[cl] += uint64(c.cfg.Latency)
		if c.tr.Active() {
			c.traceAccess(req, cycle, cycle+c.cfg.Latency, c.cfg.Level, "ideal")
		}
		return Result{Ready: cycle + c.cfg.Latency, Src: c.cfg.Level}
	}
	ready := res.Ready
	if m := cycle + c.cfg.Latency; ready < m {
		ready = m
	}
	c.st.LatencySum[cl] += uint64(ready - cycle)
	if c.tr.Active() {
		c.traceAccess(req, cycle, ready, res.Src, "miss")
	}
	return Result{Ready: ready, Src: res.Src}
}

// fill installs the line for req, evicting a victim when the set is full.
// issued is the cycle the miss was initiated; blocks whose own fill is
// still in flight at that point are protected from eviction, as MSHR-held
// fills are in hardware.
func (c *Cache) fill(set int, line mem.Addr, req *mem.Request, issued int64, res Result) {
	c.fillWith(set, line, c.access(req), req, issued, res)
}

// chooseWay picks the fill way: an invalid way if any, otherwise the
// policy's victim — overridden to another non-in-flight way when the
// policy picked a block whose fill is still outstanding.
func (c *Cache) chooseWay(set int, a *repl.Access, issued int64) int {
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == invalidTag {
			return w
		}
	}
	// The evictable filter is pre-bound at construction; parameterize it
	// through fields instead of allocating a fresh closure per miss.
	c.victimBase, c.victimIssued = base, issued
	return c.policy.Victim(set, a, c.evictableFn)
}

// evict removes the block at (set, way), writing it back when dirty and
// recording eviction statistics.
func (c *Cache) evict(set, way int, cycle int64) {
	i := set*c.ways + way
	line := c.tags[i]
	if line == invalidTag {
		return
	}
	m := &c.meta[i]
	if c.setUnder != nil {
		// Train the underutilization predictor: sets that keep evicting
		// never-reused blocks are good Victima real estate.
		u := &c.setUnder[set]
		if m.reused {
			if *u > 0 {
				*u--
			}
		} else if *u < 3 {
			*u++
		}
	}
	if m.tlb {
		// TLB blocks are clean metadata: no writeback, and they stay out
		// of the per-class memory-block eviction statistics.
		c.st.TLBEvictions++
		c.policy.Evicted(set, way)
		c.tags[i] = invalidTag
		return
	}
	c.st.Evictions[m.class]++
	if !m.reused {
		c.st.DeadEvictions[m.class]++
	}
	// Only translation and replay blocks are tracked — the classes the
	// paper's figures need — to bound memory.
	if c.recall != nil && (m.class == mem.ClassTransLeaf || m.class == mem.ClassReplay) {
		c.recall.Evicted(set, line, m.class)
	}
	c.policy.Evicted(set, way)
	c.tags[i] = invalidTag
	if m.dirty {
		c.st.Writebacks++
		// Scratch writeback request: the lower level absorbs it before
		// returning and never retains the pointer, and a nested eviction
		// down there uses that level's own scratch.
		c.wbReq = mem.Request{Addr: line << mem.LineBits, Kind: mem.Writeback}
		c.lowerAccess(&c.wbReq, cycle)
	}
}

// absorbWriteback handles a writeback arriving from the level above:
// write-allocate without promotion.
func (c *Cache) absorbWriteback(set int, line mem.Addr, cycle int64, req *mem.Request) {
	c.st.Record(mem.ClassWriteback, false)
	if w := c.find(set, line); w >= 0 {
		c.meta[set*c.ways+w].dirty = true
		return
	}
	// Allocate without fetching (full-line writeback).
	c.st.Miss[mem.ClassWriteback]++
	c.fill(set, line, req, cycle, Result{Ready: cycle + c.cfg.Latency, Src: c.cfg.Level})
}

// maybeATP fires the address-translation-triggered prefetch: on a leaf-PTE
// hit at this level, prefetch the replay line into this cache with distant
// (immediately evictable) priority.
func (c *Cache) maybeATP(req *mem.Request, ready int64) {
	if !c.cfg.ATP || !req.IsLeaf() || req.ReplayTarget == 0 {
		return
	}
	c.Prefetch(mem.LineAddr(req.ReplayTarget), ready, true)
}

// maybeTrain feeds the attached prefetcher and issues its candidates.
func (c *Cache) maybeTrain(req *mem.Request, hit bool, cycle int64) {
	if c.pf == nil {
		return
	}
	if req.Kind != mem.Load && req.Kind != mem.Store {
		return
	}
	// Train appends into the cache's candidate scratch buffer; Prefetch
	// never re-enters maybeTrain on the same cache, so iterating the
	// scratch while issuing is safe.
	c.cands = c.pf.Train(req, hit, cycle, c.cands[:0])
	for _, cand := range c.cands {
		c.Prefetch(cand.Line, cycle+cand.Delay, false)
	}
}

// Prefetch brings a physical line into this cache if absent. Distant
// prefetches (ATP/TEMPO) insert with the highest eviction priority, exactly
// as the paper specifies. It returns the fill-ready cycle (or the existing
// block's availability). Under the queued engine the call is diverted into
// the level's prefetch queues instead of issuing immediately.
func (c *Cache) Prefetch(line mem.Addr, cycle int64, distant bool) int64 {
	if c.pfSink != nil {
		return c.pfSink(line, cycle, distant)
	}
	return c.prefetchNow(line, cycle, distant)
}

// prefetchNow performs the prefetch synchronously (the analytic path, and
// the queued engine's PQ drain).
func (c *Cache) prefetchNow(line mem.Addr, cycle int64, distant bool) int64 {
	set := c.setOf(line)
	if w := c.find(set, line); w >= 0 {
		if fa := c.fillAt[set*c.ways+w]; fa > cycle {
			return fa
		}
		return cycle
	}
	// Prefetches are dropped, not queued, when the MSHRs are saturated —
	// they must never delay demand misses.
	if c.mshrFull(cycle) {
		c.st.PrefDropped++
		return cycle
	}
	c.st.PrefIssued++
	c.st.Record(mem.ClassPrefetch, true)
	// Scratch prefetch request: a prefetch read cannot trigger another
	// prefetch on this cache (TEMPO fires only on leaf translations), so
	// the single scratch is never aliased.
	c.pfReq = mem.Request{Addr: line << mem.LineBits, Kind: mem.Prefetch}
	req := &c.pfReq
	res := c.lowerAccess(req, cycle+c.cfg.Latency)
	if c.tr.Active() {
		// ATP/TEMPO prefetches fired inside a sampled request's window show
		// up on that request's cache lane.
		var kind int64
		if distant {
			kind = 1
		}
		c.tr.Span("cache", c.cfg.Name+" prefetch", telemetry.LaneCache, cycle, res.Ready,
			telemetry.IArg("line", int64(line)), telemetry.IArg("distant", kind))
	}
	a := c.access(req)
	a.Distant = distant
	c.fillWith(set, line, a, req, cycle, res)
	c.mshrRecord(res.Ready)
	return res.Ready
}

// fillWith is fill with an explicit policy access (needed to carry the
// Distant flag for ATP/TEMPO prefetches).
func (c *Cache) fillWith(set int, line mem.Addr, a *repl.Access, req *mem.Request, issued int64, res Result) {
	way := c.chooseWay(set, a, issued)
	c.evict(set, way, res.Ready)
	i := set*c.ways + way
	c.tags[i] = line
	c.fillAt[i] = res.Ready
	c.meta[i] = blockMeta{
		// Writeback-allocated lines hold the only copy of the dirty data;
		// they must leave dirty or the write is lost on eviction.
		dirty:    req.Kind == mem.Store || req.Kind == mem.Writeback,
		class:    req.Class(),
		prefetch: req.Kind == mem.Prefetch,
		fillSrc:  res.Src,
	}
	if c.payload != nil {
		c.payload[i] = 0
	}
	c.policy.Insert(set, way, a)
}

// Contains reports whether the line holding addr is present (including
// in-flight fills); used by tests and by the ATP/TEMPO wiring.
func (c *Cache) Contains(addr mem.Addr) bool {
	line := mem.LineAddr(addr)
	return c.find(c.setOf(line), line) >= 0
}

// DRAMAdapter terminates a hierarchy on a dram.Channel-compatible device.
type DRAMAdapter struct {
	// Read services a demand/translation/prefetch read and returns the
	// delivery cycle.
	Read func(req *mem.Request, cycle int64) int64
	// Write posts a writeback.
	Write func(addr mem.Addr, cycle int64)
}

// Access implements Lower.
func (d DRAMAdapter) Access(req *mem.Request, cycle int64) Result {
	if req.Kind == mem.Writeback {
		d.Write(req.Addr, cycle)
		return Result{Ready: cycle, Src: mem.LvlDRAM}
	}
	return Result{Ready: d.Read(req, cycle), Src: mem.LvlDRAM}
}
