package main

import (
	"fmt"
	"time"

	"atcsim/internal/cache"
	"atcsim/internal/dram"
	"atcsim/internal/mem"
	"atcsim/internal/ptw"
	"atcsim/internal/repl"
	"atcsim/internal/tlb"
	"atcsim/internal/vm"
	"atcsim/internal/xlat"
)

// costs holds each layer's host cost per call, measured by a probe that
// drives the layer's public entry point in isolation. The ledger multiplies
// them by the event counts a Result reports.
type costs struct {
	tlbLookup  float64            // STLB Lookup hit
	xlatMiss   float64            // STLB-missing MMU Translate (walk, PSC, PTE reads)
	cacheHit   float64            // one-level Access hit
	cacheMiss  float64            // one-level Access miss over a fixed-latency lower level (LRU)
	missStream float64            // three-level analytic Access missing into DRAM
	dramRead   float64            // DRAM channel Read
	queuedMiss float64            // three-level queued Access missing into DRAM
	queuedPer  float64            // queued-engine overhead per enqueued entry
	repl       map[string]float64 // victim+evict+insert per policy
}

// probePolicies are the replacement policies the enhancement ladder uses at
// the L2C and LLC.
var probePolicies = []string{"drrip", "ship", "t-drrip", "t-ship"}

// probeReps batches per probe; the probe reports the median batch.
const probeReps = 5

// timeBatches runs f(i0, n) once to warm up, then probeReps more times, and
// returns the median host ns per call. f performs n calls starting at call
// index i0, so address streams keep advancing across batches.
func timeBatches(sp *spans, parent int, name string, n int, f func(i0, n int) error) (float64, error) {
	id := sp.begin("probe."+name, parent, 0)
	defer sp.end(id)
	if err := f(0, n); err != nil {
		return 0, fmt.Errorf("probe %s: %w", name, err)
	}
	xs := make([]float64, 0, probeReps)
	for r := 1; r <= probeReps; r++ {
		t := time.Now()
		if err := f(r*n, n); err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		xs = append(xs, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	return median(xs), nil
}

// fixedLower is a next level that answers every access after a constant
// latency, isolating one cache level's own work from the levels below it.
type fixedLower struct{}

func (fixedLower) Access(_ *mem.Request, cycle int64) cache.Result {
	return cache.Result{Ready: cycle + 100, Src: mem.LvlDRAM}
}

// threeLevels builds L1D → L2C → LLC over DRAM with Table I geometry; with
// queued set, each level sits behind a cache.Queued wrapper the way the
// queued timing engine wires it.
func threeLevels(queued bool) (cache.Lower, []*cache.Queued, error) {
	ctl := dram.NewController(dram.DefaultConfig())
	var lower cache.Lower = cache.DRAMAdapter{Read: ctl.Read, Write: ctl.Write}
	var wrappers []*cache.Queued
	for _, cfg := range []cache.Config{
		{Name: "LLC", Level: mem.LvlLLC, SizeBytes: 2 << 20, Ways: 16, Latency: 20, MSHRs: 64, Policy: "ship"},
		{Name: "L2C", Level: mem.LvlL2, SizeBytes: 512 << 10, Ways: 8, Latency: 10, MSHRs: 32, Policy: "drrip"},
		{Name: "L1D", Level: mem.LvlL1D, SizeBytes: 48 << 10, Ways: 12, Latency: 5, MSHRs: 16, Policy: "lru"},
	} {
		c, err := cache.New(cfg, lower)
		if err != nil {
			return nil, nil, err
		}
		lower = c
		if queued {
			q := cache.NewQueued(c, cache.DefaultQueueConfig(cfg.Level))
			wrappers = append(wrappers, q)
			lower = q
		}
	}
	return lower, wrappers, nil
}

// xlatMMU assembles a translation frontend (DTLB, STLB, walker with PSC,
// L2C/LLC over DRAM, the atp mechanism) and faults in pages so measured
// translations never allocate frames.
func xlatMMU(pages int) (*ptw.MMU, error) {
	alloc, err := vm.NewFrameAllocator(33, true)
	if err != nil {
		return nil, err
	}
	pt, err := vm.NewPageTable(alloc)
	if err != nil {
		return nil, err
	}
	ctl := dram.NewController(dram.DefaultConfig())
	llc, err := cache.New(cache.Config{Name: "LLC", Level: mem.LvlLLC, SizeBytes: 2 << 20, Ways: 16, Latency: 20, Policy: "ship"},
		cache.DRAMAdapter{Read: ctl.Read, Write: ctl.Write})
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(cache.Config{Name: "L2C", Level: mem.LvlL2, SizeBytes: 512 << 10, Ways: 8, Latency: 10, Policy: "drrip"}, llc)
	if err != nil {
		return nil, err
	}
	w, err := ptw.NewWalker(pt, tlb.NewPSC(tlb.DefaultPSCSizes()), l2, 0)
	if err != nil {
		return nil, err
	}
	dtlb, err := tlb.New(tlb.Config{Name: "DTLB", Entries: 64, Ways: 4, Latency: 1})
	if err != nil {
		return nil, err
	}
	stlb, err := tlb.New(tlb.Config{Name: "STLB", Entries: 2048, Ways: 16, Latency: 8})
	if err != nil {
		return nil, err
	}
	mmu, err := ptw.NewMMU(dtlb, nil, stlb, w)
	if err != nil {
		return nil, err
	}
	mech, err := xlat.New("atp", xlat.Deps{L2: l2, LLC: llc, STLB: stlb})
	if err != nil {
		return nil, err
	}
	mmu.SetMechanism(mech)
	for i := 0; i < pages; i++ {
		if _, err := mmu.Translate(mem.Addr(i)*mem.PageSize, 7, int64(i)*100); err != nil {
			return nil, err
		}
	}
	return mmu, nil
}

// measureCosts runs every layer probe.
func measureCosts(sp *spans, parent int) (costs, error) {
	id := sp.begin("probes", parent, 0)
	defer sp.end(id)
	c := costs{repl: map[string]float64{}}
	var err error
	set := func(dst *float64, name string, n int, f func(i0, n int) error) {
		if err == nil {
			*dst, err = timeBatches(sp, id, name, n, f)
		}
	}

	stlb, terr := tlb.New(tlb.Config{Name: "STLB", Entries: 2048, Ways: 16, Latency: 8})
	if terr != nil {
		return c, terr
	}
	const resident = 1024
	for i := 0; i < resident; i++ {
		stlb.Insert(mem.Addr(i)*mem.PageSize, mem.Addr(0x10000+i)*mem.PageSize)
	}
	set(&c.tlbLookup, "tlb.Lookup", 400_000, func(i0, n int) error {
		for i := i0; i < i0+n; i++ {
			if _, hit := stlb.Lookup(mem.Addr(i%resident) * mem.PageSize); !hit {
				return fmt.Errorf("resident page %d missed", i%resident)
			}
		}
		return nil
	})

	const xlatPages = 8192 // four times STLB reach: every translation misses it
	mmu, xerr := xlatMMU(xlatPages)
	if xerr != nil {
		return c, xerr
	}
	set(&c.xlatMiss, "ptw.Translate", 40_000, func(i0, n int) error {
		for i := i0; i < i0+n; i++ {
			if _, err := mmu.Translate(mem.Addr(i%xlatPages)*mem.PageSize, 7, int64(i)*100+int64(xlatPages)*100); err != nil {
				return err
			}
		}
		return nil
	})

	l1, cerr := cache.New(cache.Config{Name: "L1D", Level: mem.LvlL1D, SizeBytes: 48 << 10, Ways: 12, Latency: 5, MSHRs: 16, Policy: "lru"}, fixedLower{})
	if cerr != nil {
		return c, cerr
	}
	hitReq := &mem.Request{Addr: 0x1000, Kind: mem.Load, IP: 1}
	set(&c.cacheHit, "cache.Access.hit", 400_000, func(i0, n int) error {
		for i := i0; i < i0+n; i++ {
			l1.Access(hitReq, int64(i)*10+1000)
		}
		return nil
	})

	one, cerr := cache.New(cache.Config{Name: "LLC", Level: mem.LvlLLC, SizeBytes: 2 << 20, Ways: 16, Latency: 20, MSHRs: 64, Policy: "lru"}, fixedLower{})
	if cerr != nil {
		return c, cerr
	}
	missReq := &mem.Request{Kind: mem.Load, IP: 2}
	set(&c.cacheMiss, "cache.Access.miss", 200_000, func(i0, n int) error {
		for i := i0; i < i0+n; i++ {
			missReq.Addr = mem.Addr(i) << mem.LineBits
			one.Access(missReq, int64(i)*50)
		}
		return nil
	})

	stream, _, serr := threeLevels(false)
	if serr != nil {
		return c, serr
	}
	set(&c.missStream, "cache.Access.miss_stream", 100_000, func(i0, n int) error {
		for i := i0; i < i0+n; i++ {
			missReq.Addr = mem.Addr(i) * 8192
			stream.Access(missReq, int64(i)*50)
		}
		return nil
	})

	ch := dram.New(dram.DefaultConfig())
	dreq := &mem.Request{Kind: mem.Load}
	set(&c.dramRead, "dram.Read", 400_000, func(i0, n int) error {
		for i := i0; i < i0+n; i++ {
			dreq.Addr = mem.Addr(i%1024) * 4096
			ch.Read(dreq, int64(i)*8)
		}
		return nil
	})

	for _, pol := range probePolicies {
		var v float64
		set(&v, "repl."+pol, 200_000, replLoop(pol))
		c.repl[pol] = v
	}

	q, wrappers, qerr := threeLevels(true)
	if qerr != nil {
		return c, qerr
	}
	qreq := &mem.Request{Kind: mem.Load, IP: 2}
	const queuedN = 10_000
	var enqBefore, enqAfter uint64
	set(&c.queuedMiss, "cache.Queued.Access.miss_stream", queuedN, func(i0, n int) error {
		enqBefore = enqueued(wrappers)
		for i := i0; i < i0+n; i++ {
			qreq.Addr = mem.Addr(i) << mem.LineBits
			q.Access(qreq, int64(i)*10)
		}
		enqAfter = enqueued(wrappers)
		return nil
	})
	if err != nil {
		return c, err
	}
	// The queued engine's own cost per deque entry: what a queued miss costs
	// beyond the analytic one, spread over the entries it enqueued.
	perAccess := float64(enqAfter-enqBefore) / queuedN
	c.queuedPer = max(0, ratio(c.queuedMiss-c.missStream, perAccess))
	return c, nil
}

func enqueued(ws []*cache.Queued) uint64 {
	var n uint64
	for _, w := range ws {
		n += w.Stats().Enqueued
	}
	return n
}

// replLoop drives one policy through a miss-heavy Victim/Evicted/Insert/Hit
// mix over four times the lines a 2048×16 cache holds, with a quarter of the
// accesses replays and an eighth leaf translations so the translation-
// conscious policies take their class-specific paths.
func replLoop(policy string) func(i0, n int) error {
	const sets, ways = 2048, 16
	p, err := repl.New(policy, sets, ways)
	occupied := make([]mem.Addr, sets*ways)
	for i := range occupied {
		occupied[i] = ^mem.Addr(0)
	}
	evictable := func(int) bool { return true }
	var a repl.Access
	return func(i0, n int) error {
		if err != nil {
			return err
		}
		for i := i0; i < i0+n; i++ {
			line := mem.Addr(i % (4 * sets * ways))
			set := int(line) % sets
			a = repl.Access{IP: mem.Addr(i & 1023), Line: line, Kind: mem.Load, Class: mem.ClassNonReplay}
			switch {
			case i%8 == 0:
				a.Kind, a.Class = mem.Translation, mem.ClassTransLeaf
			case i%4 == 1:
				a.Class = mem.ClassReplay
			}
			row := occupied[set*ways : (set+1)*ways]
			hit := -1
			for w, l := range row {
				if l == line {
					hit = w
					break
				}
			}
			if hit >= 0 {
				p.Hit(set, hit, &a)
				continue
			}
			w := p.Victim(set, &a, evictable)
			p.Evicted(set, w)
			p.Insert(set, w, &a)
			row[w] = line
		}
		return nil
	}
}
