package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if err := p.Check(SiteRun, "baseline/pr"); err != nil {
		t.Errorf("nil plan Check = %v", err)
	}
	if p.ShouldCorrupt("abc") {
		t.Error("nil plan corrupts")
	}
	if p.Events() != nil || p.Fired(KindPanic) != 0 {
		t.Error("nil plan has events")
	}
}

func TestTransientHealsAfterUntil(t *testing.T) {
	p := NewPlan(1, Rule{Site: SiteRun, Match: "pr", Kind: KindIOErr, Until: 2})
	for hit := 1; hit <= 2; hit++ {
		err := p.Check(SiteRun, "baseline/pr")
		var fe *Error
		if !errors.As(err, &fe) {
			t.Fatalf("consultation %d: err = %v", hit, err)
		}
		if fe.Kind != KindIOErr || fe.Hit != hit {
			t.Errorf("consultation %d: kind %s, hit %d", hit, fe.Kind, fe.Hit)
		}
	}
	if err := p.Check(SiteRun, "baseline/pr"); err != nil {
		t.Errorf("consultation 3 not healed: %v", err)
	}
	// Distinct identities have independent counters.
	if err := p.Check(SiteRun, "baseline/pr@7"); err == nil {
		t.Error("fresh identity did not fail")
	}
}

func TestUnmatchedSiteAndIDIgnored(t *testing.T) {
	p := NewPlan(1, Rule{Site: SiteDiskLoad, Match: "pr", Kind: KindIOErr})
	if err := p.Check(SiteRun, "baseline/pr"); err != nil {
		t.Errorf("wrong site fired: %v", err)
	}
	if err := p.Check(SiteDiskLoad, "baseline/mcf"); err != nil {
		t.Errorf("wrong id fired: %v", err)
	}
	if err := p.Check(SiteDiskLoad, "baseline/pr"); err == nil {
		t.Error("matching check did not fire")
	}
}

func TestPanicRule(t *testing.T) {
	p := NewPlan(1, Rule{Site: SiteRun, Match: "boom", Kind: KindPanic})
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
		if p.Fired(KindPanic) != 1 {
			t.Errorf("panic firings = %d", p.Fired(KindPanic))
		}
	}()
	p.Check(SiteRun, "enh/boom")
}

func TestTimesCapsFirings(t *testing.T) {
	p := NewPlan(1, Rule{Site: SiteDiskStore, Kind: KindIOErr, Times: 2})
	failed := 0
	for i := 0; i < 5; i++ {
		if err := p.Check(SiteDiskStore, "k"); err != nil {
			failed++
		}
	}
	if failed != 2 {
		t.Errorf("fired %d times, want 2", failed)
	}
}

func TestSlowRuleSleeps(t *testing.T) {
	p := NewPlan(1, Rule{Site: SiteRun, Kind: KindSlow, Delay: 30 * time.Millisecond, Times: 1})
	start := time.Now()
	if err := p.Check(SiteRun, "x"); err != nil {
		t.Fatalf("slow rule returned error: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("slept only %v", d)
	}
	if p.Fired(KindSlow) != 1 {
		t.Errorf("slow firings = %d", p.Fired(KindSlow))
	}
}

func TestShouldCorrupt(t *testing.T) {
	p := NewPlan(1, Rule{Site: SiteDiskEntry, Kind: KindCorrupt, Times: 1})
	if !p.ShouldCorrupt("aaa") {
		t.Error("first entry not corrupted")
	}
	if p.ShouldCorrupt("bbb") {
		t.Error("Times=1 rule fired twice")
	}
	// Corrupt rules never leak through Check.
	p2 := NewPlan(1, Rule{Site: SiteDiskEntry, Kind: KindCorrupt})
	if err := p2.Check(SiteDiskEntry, "aaa"); err != nil {
		t.Errorf("Check fired a corrupt rule: %v", err)
	}
}

func TestProbabilisticRuleSeeded(t *testing.T) {
	run := func(seed int64) int {
		p := NewPlan(seed, Rule{Site: SiteRun, Kind: KindPermanent, Prob: 0.5})
		n := 0
		for i := 0; i < 100; i++ {
			if p.Check(SiteRun, "x") != nil {
				n++
			}
		}
		return n
	}
	a, b := run(42), run(42)
	if a != b {
		t.Errorf("same seed fired %d vs %d", a, b)
	}
	if a == 0 || a == 100 {
		t.Errorf("prob 0.5 fired %d/100", a)
	}
}

func TestConcurrentChecksRace(t *testing.T) {
	p := NewPlan(1,
		Rule{Site: SiteRun, Kind: KindIOErr, Until: 3},
		Rule{Site: SiteDiskEntry, Kind: KindCorrupt, Times: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.Check(SiteRun, "a")
				p.ShouldCorrupt("b")
			}
		}()
	}
	wg.Wait()
	if n := p.Fired(KindIOErr); n != 3 {
		t.Errorf("io-error fired %d, want 3", n)
	}
	if n := p.Fired(KindCorrupt); n != 4 {
		t.Errorf("corrupt fired %d, want 4", n)
	}
}

func TestErrorMessageStable(t *testing.T) {
	p := NewPlan(1, Rule{Site: SiteRun, Kind: KindIOErr})
	err := p.Check(SiteRun, "baseline/pr")
	want := "faultinject: io-error at run baseline/pr (hit 1)"
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}
