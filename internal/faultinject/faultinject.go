// Package faultinject provides a deterministic, seeded fault plan for chaos
// testing the experiment engine. Production code consults the plan at named
// hook sites (Check / ShouldCorrupt); a nil *Plan is a no-op, so the hooks
// cost one nil check when chaos testing is off.
//
// A plan is a list of rules. Each rule names a hook Site, an identity
// substring to match (the run label/name or cache-key hash the hook passes),
// a fault Kind, and firing bounds: Until fires the fault for the first N
// matching consultations of one identity (the shape of a transient failure
// that heals after K attempts), Times caps total firings across identities,
// and Prob gates each firing on a seeded RNG. Rules with neither bound fire
// on every match.
//
// Because rules match on stable run identities — not on global arrival
// order — an injected fault hits the same simulation regardless of the
// worker-pool size or goroutine schedule, which is what makes chaos sweeps
// reproducible and their reports byte-identical across -jobs values.
package faultinject

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Site names a hook location in the engine.
type Site string

// Hook sites wired into internal/experiments and its runner.
const (
	// SiteRun is consulted once per simulation attempt, inside the
	// attempt's deadline and before the simulation executes, with the
	// run's "label/name" identity.
	SiteRun Site = "run"
	// SiteDiskLoad is consulted by Disk.Load with the run-key hash.
	SiteDiskLoad Site = "disk.load"
	// SiteDiskStore is consulted by Disk.Store with the run-key hash.
	SiteDiskStore Site = "disk.store"
	// SiteDiskEntry is consulted (via ShouldCorrupt) after a successful
	// Disk.Store; a firing corrupts the just-written entry on disk.
	SiteDiskEntry Site = "disk.entry"
)

// Kind is the fault a rule injects.
type Kind int

// Fault kinds.
const (
	// KindPanic panics at the hook site, simulating a crashing run.
	KindPanic Kind = iota
	// KindTransient returns a retryable error (heals after Until hits).
	KindTransient
	// KindPermanent returns a non-retryable error.
	KindPermanent
	// KindSlow sleeps Delay at the hook site, simulating a stalled run.
	KindSlow
	// KindIOErr returns a retryable error shaped like an I/O failure.
	KindIOErr
	// KindCorrupt (SiteDiskEntry only) corrupts the on-disk cache entry.
	KindCorrupt
)

var kindNames = map[Kind]string{
	KindPanic:     "panic",
	KindTransient: "transient",
	KindPermanent: "permanent",
	KindSlow:      "slow",
	KindIOErr:     "io-error",
	KindCorrupt:   "corrupt",
}

// String returns the kind's stable lowercase name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Rule describes one fault to inject.
type Rule struct {
	// Site is the hook location the rule applies to.
	Site Site
	// Match is a substring of the hook identity ("" matches every identity).
	Match string
	// Kind is the fault injected when the rule fires.
	Kind Kind
	// Until, when positive, fires the fault only for the first Until
	// matching consultations of each identity — a transient failure that
	// heals on attempt Until+1.
	Until int
	// Times, when positive (and Until is zero), caps the rule's total
	// firings across all identities.
	Times int
	// Prob, when in (0,1), gates each would-be firing on the plan's seeded
	// RNG. Zero (and ≥1) means always fire. Probabilistic rules are
	// reproducible only under a deterministic consultation order (one job).
	Prob float64
	// Delay is how long a KindSlow firing sleeps.
	Delay time.Duration
}

// Event records one fault firing, for test assertions.
type Event struct {
	Site Site
	ID   string
	Kind Kind
	// Hit is the per-rule, per-identity consultation count at firing time
	// (1 for the first consultation of that identity).
	Hit int
}

// Error is the injected failure returned by Check for error kinds.
type Error struct {
	Site Site
	ID   string
	Kind Kind
	Hit  int
}

// Error renders a stable, schedule-independent message (no timestamps or
// addresses), so failure reasons derived from it are deterministic.
func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: %s at %s %s (hit %d)", e.Kind, e.Site, e.ID, e.Hit)
}

// Transient reports whether the injected failure is retryable; the runner's
// retry layer classifies errors through this interface method.
func (e *Error) Transient() bool {
	return e.Kind == KindTransient || e.Kind == KindIOErr
}

// Plan is a live fault plan. All methods are safe for concurrent use and
// valid on a nil receiver (no faults).
type Plan struct {
	mu       sync.Mutex
	rng      *rand.Rand
	rules    []Rule
	hits     map[string]int // per rule × identity consultation counts
	fired    []int          // per rule total firings
	events   []Event
	observer func(Event)
}

// NewPlan builds a plan from rules. seed drives the RNG behind probabilistic
// rules; plans with only deterministic rules behave identically for any seed.
func NewPlan(seed int64, rules ...Rule) *Plan {
	return &Plan{
		rng:   rand.New(rand.NewSource(seed)),
		rules: append([]Rule(nil), rules...),
		hits:  make(map[string]int),
		fired: make([]int, len(rules)),
	}
}

// firing is one matched rule ready to take effect.
type firing struct {
	rule Rule
	hit  int
}

// consult walks the rules for a site/identity, updates counters, and returns
// the first rule that fires (nil when none does).
func (p *Plan) consult(site Site, id string) *firing {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, r := range p.rules {
		if r.Site != site {
			continue
		}
		if r.Match != "" && !strings.Contains(id, r.Match) {
			continue
		}
		key := fmt.Sprintf("%d|%s", i, id)
		p.hits[key]++
		hit := p.hits[key]
		if r.Until > 0 && hit > r.Until {
			continue // healed for this identity
		}
		if r.Until == 0 && r.Times > 0 && p.fired[i] >= r.Times {
			continue // exhausted
		}
		if r.Prob > 0 && r.Prob < 1 && p.rng.Float64() >= r.Prob {
			continue
		}
		p.fired[i]++
		ev := Event{Site: site, ID: id, Kind: r.Kind, Hit: hit}
		p.events = append(p.events, ev)
		if obs := p.observer; obs != nil {
			// Deliver outside the lock so observers may consult the plan.
			p.mu.Unlock()
			obs(ev)
			p.mu.Lock()
		}
		return &firing{rule: r, hit: hit}
	}
	return nil
}

// SetObserver installs a callback invoked with every fault firing — the
// flight-recorder hook. The callback runs on the faulting goroutine,
// outside the plan's lock; it must be safe for concurrent use.
func (p *Plan) SetObserver(f func(Event)) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.observer = f
	p.mu.Unlock()
}

// Check consults the plan at a hook site. Depending on the first firing
// rule it may panic (KindPanic), sleep (KindSlow, returning nil), or return
// an *Error (KindTransient / KindPermanent / KindIOErr). It returns nil when
// no rule fires. KindCorrupt rules never fire here — they answer
// ShouldCorrupt.
func (p *Plan) Check(site Site, id string) error {
	f := p.consult(site, id)
	if f == nil || f.rule.Kind == KindCorrupt {
		return nil
	}
	switch f.rule.Kind {
	case KindPanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s %s", site, id))
	case KindSlow:
		time.Sleep(f.rule.Delay)
		return nil
	default:
		return &Error{Site: site, ID: id, Kind: f.rule.Kind, Hit: f.hit}
	}
}

// ShouldCorrupt reports whether a KindCorrupt rule fires for this identity
// at SiteDiskEntry. The caller (the disk cache) performs the corruption.
func (p *Plan) ShouldCorrupt(id string) bool {
	f := p.consult(SiteDiskEntry, id)
	return f != nil && f.rule.Kind == KindCorrupt
}

// Events returns a copy of every fault fired so far. Under a concurrent
// sweep the order is nondeterministic; assert on counts or sets.
func (p *Plan) Events() []Event {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.events...)
}

// Fired counts the firings of one kind across all rules.
func (p *Plan) Fired(k Kind) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range p.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}
