package simserver

import (
	"fmt"
	"sync"
	"time"
)

// breakerState is a circuit breaker's position.
type breakerState int

const (
	// breakerClosed: traffic flows; outcomes are recorded in the window.
	breakerClosed breakerState = iota
	// breakerHalfOpen: the cooldown elapsed; one probe request tests
	// whether the kind has recovered.
	breakerHalfOpen
	// breakerOpen: the kind is cut off until the cooldown elapses.
	breakerOpen
)

// String renders the state for metrics help text and errors.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// BreakerOpenError reports a request refused because its kind's circuit
// breaker is open. RetryAfter is when the breaker next admits a probe.
type BreakerOpenError struct {
	Kind       string
	RetryAfter time.Duration
}

// Error renders the refusal with the retry hint.
func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("circuit breaker open for %s; retry after %v", e.Kind, e.RetryAfter)
}

// breakerConfig is the shared tuning of every breaker in a set.
type breakerConfig struct {
	window    int           // sliding window of recorded outcomes
	threshold int           // failures within the window that trip it
	cooldown  time.Duration // open → half-open delay
}

// breaker is one kind's circuit breaker: a sliding window of recent run
// outcomes, tripping open when failures within the window reach the
// threshold, cooling down, then probing half-open. All methods are safe for
// concurrent use.
type breaker struct {
	mu       sync.Mutex
	cfg      breakerConfig
	state    breakerState
	window   []bool // ring buffer: true = failure
	idx, n   int
	failures int
	openedAt time.Time
	inProbe  bool // a half-open probe is in flight
	trips    uint64
	// now is the clock seam for tests.
	now func() time.Time
}

func newBreaker(cfg breakerConfig, now func() time.Time) *breaker {
	if now == nil {
		now = time.Now
	}
	return &breaker{cfg: cfg, window: make([]bool, cfg.window), now: now}
}

// Allow reports whether a request of this kind may proceed, returning a
// *BreakerOpenError with a retry hint when it may not. A half-open breaker
// admits one probe at a time.
func (b *breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if elapsed := b.now().Sub(b.openedAt); elapsed >= b.cfg.cooldown {
			b.state = breakerHalfOpen
			b.inProbe = false
		} else {
			return &BreakerOpenError{RetryAfter: b.cfg.cooldown - elapsed}
		}
	}
	// Half-open (possibly just transitioned): admit one probe.
	if b.inProbe {
		return &BreakerOpenError{RetryAfter: b.cfg.cooldown}
	}
	b.inProbe = true
	return nil
}

// Report records one admitted request's outcome. In the closed state a
// failure ratchets the window and may trip the breaker; in the half-open
// state one success closes it and one failure reopens it.
func (b *breaker) Report(failure bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.inProbe = false
		if failure {
			b.state = breakerOpen
			b.openedAt = b.now()
			b.trips++
			return
		}
		b.reset()
	case breakerClosed:
		if b.n == len(b.window) && b.window[b.idx] {
			b.failures-- // the outcome falling out of the window
		}
		b.window[b.idx] = failure
		b.idx = (b.idx + 1) % len(b.window)
		if b.n < len(b.window) {
			b.n++
		}
		if failure {
			b.failures++
			if b.failures >= b.cfg.threshold {
				b.state = breakerOpen
				b.openedAt = b.now()
				b.trips++
			}
		}
	case breakerOpen:
		// A request admitted before the trip finishing late: no-op.
	}
}

// Cancel releases an admitted slot without recording an outcome — the
// request was admitted by the breaker but never ran (shed by admission
// control, client gone before start). Only half-open probe accounting
// needs the release; every other state is a no-op.
func (b *breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.inProbe = false
	}
}

// reset returns the breaker to a clean closed state.
func (b *breaker) reset() {
	b.state = breakerClosed
	for i := range b.window {
		b.window[i] = false
	}
	b.idx, b.n, b.failures, b.inProbe = 0, 0, 0, false
}

// State returns the current state (resolving an elapsed cooldown lazily).
func (b *breaker) State() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen && b.now().Sub(b.openedAt) >= b.cfg.cooldown {
		return breakerHalfOpen
	}
	return b.state
}

// Trips returns how many times this breaker has tripped open.
func (b *breaker) Trips() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// breakerSet lazily materializes one breaker per request kind.
type breakerSet struct {
	mu  sync.Mutex
	cfg breakerConfig
	m   map[string]*breaker
	// onNew, when non-nil, observes each newly created kind (the metrics
	// registration hook). Called outside the set lock is not needed — the
	// registry takes its own lock — but called exactly once per kind.
	onNew func(kind string, b *breaker)
	now   func() time.Time
}

func newBreakerSet(cfg breakerConfig) *breakerSet {
	return &breakerSet{cfg: cfg, m: make(map[string]*breaker), now: time.Now}
}

// get returns (creating on first use) the breaker for a kind.
func (s *breakerSet) get(kind string) *breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[kind]
	if !ok {
		b = newBreaker(s.cfg, s.now)
		s.m[kind] = b
		if s.onNew != nil {
			s.onNew(kind, b)
		}
	}
	return b
}
