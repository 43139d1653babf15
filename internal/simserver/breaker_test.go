package simserver

import (
	"errors"
	"testing"
	"time"
)

func testBreaker(clock *fakeClock) *breaker {
	return newBreaker(breakerConfig{
		window:    5,
		threshold: 3,
		cooldown:  10 * time.Second,
	}, clock.Now)
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock)
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker refused: %v", err)
		}
		b.Report(true)
	}
	if b.State() != breakerClosed {
		t.Fatalf("state = %v before threshold", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Report(true) // third failure in the window: trip
	if b.State() != breakerOpen {
		t.Fatalf("state = %v after threshold failures", b.State())
	}
	var open *BreakerOpenError
	if err := b.Allow(); !errors.As(err, &open) {
		t.Fatalf("open breaker admitted: %v", err)
	}
	if open.RetryAfter <= 0 || open.RetryAfter > 10*time.Second {
		t.Errorf("RetryAfter = %v", open.RetryAfter)
	}
	if b.Trips() != 1 {
		t.Errorf("Trips() = %d", b.Trips())
	}
}

func TestBreakerWindowSlidesFailuresOut(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock)
	// Two failures, then enough successes to slide them out of the
	// 5-outcome window; two more failures must NOT trip (only 2 in window).
	outcomes := []bool{true, true, false, false, false, false, false, true, true}
	for _, failure := range outcomes {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker refused: %v", err)
		}
		b.Report(failure)
	}
	if b.State() != breakerClosed {
		t.Fatalf("state = %v; window did not slide old failures out", b.State())
	}
}

func TestBreakerHalfOpenProbesAndRecovery(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock)
	for i := 0; i < 3; i++ {
		b.Allow()
		b.Report(true)
	}
	if b.State() != breakerOpen {
		t.Fatal("not open after threshold")
	}
	clock.Advance(10 * time.Second) // cooldown elapses
	if b.State() != breakerHalfOpen {
		t.Fatalf("state = %v after cooldown", b.State())
	}
	// Half-open admits exactly one trial at a time.
	if err := b.Allow(); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	if err := b.Allow(); err == nil {
		t.Fatal("second probe admitted while the first is in flight")
	}
	// One probe succeeding closes the breaker and resets the window.
	b.Report(false)
	if b.State() != breakerClosed {
		t.Fatalf("state = %v after successful probe", b.State())
	}
	// Two failures must not trip the freshly-reset window.
	b.Allow()
	b.Report(true)
	b.Allow()
	b.Report(true)
	if b.State() != breakerClosed {
		t.Fatal("window not reset after recovery")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock)
	for i := 0; i < 3; i++ {
		b.Allow()
		b.Report(true)
	}
	clock.Advance(10 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	b.Report(true) // probe failed: straight back to open
	if b.State() != breakerOpen {
		t.Fatalf("state = %v after failed probe", b.State())
	}
	if b.Trips() != 2 {
		t.Errorf("Trips() = %d, want 2", b.Trips())
	}
	if err := b.Allow(); err == nil {
		t.Fatal("reopened breaker admitted")
	}
}

func TestBreakerCancelReleasesProbeSlot(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock)
	for i := 0; i < 3; i++ {
		b.Allow()
		b.Report(true)
	}
	clock.Advance(10 * time.Second)
	// Take the probe slot, then cancel it: a new probe must fit.
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	if err := b.Allow(); err == nil {
		t.Fatal("probe budget not enforced")
	}
	b.Cancel()
	if err := b.Allow(); err != nil {
		t.Fatalf("canceled slot not released: %v", err)
	}
}

func TestBreakerSetIsolatesKinds(t *testing.T) {
	s := newBreakerSet(breakerConfig{window: 4, threshold: 2, cooldown: time.Minute})
	var created []string
	s.onNew = func(kind string, _ *breaker) { created = append(created, kind) }
	a, b := s.get("tempo/mcf"), s.get("baseline/pr")
	if s.get("tempo/mcf") != a {
		t.Fatal("breaker not memoized per kind")
	}
	a.Allow()
	a.Report(true)
	a.Allow()
	a.Report(true)
	if a.State() != breakerOpen {
		t.Fatal("kind a not tripped")
	}
	if b.State() != breakerClosed {
		t.Fatal("kind b tripped by kind a's failures")
	}
	if len(created) != 2 {
		t.Errorf("onNew fired %d times, want 2 (%v)", len(created), created)
	}
}
