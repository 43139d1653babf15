package stats

import (
	"testing"

	"atcsim/internal/mem"
)

// TestRecallTracker pins the recall-distance rules the caches and the STLB
// share. Each op observes or evicts a key in a set, or resets the tracker;
// the tracker is then read for the leaf-translation class.
func TestRecallTracker(t *testing.T) {
	type op struct {
		evict bool // evict key instead of observing it
		reset bool
		set   int
		key   mem.Addr
	}
	obs := func(set int, key mem.Addr) op { return op{set: set, key: key} }
	evict := func(set int, key mem.Addr) op { return op{evict: true, set: set, key: key} }
	for _, tc := range []struct {
		name      string
		ops       []op
		samples   uint64
		evictions uint64
		max       uint64
	}{
		{
			// Two-way set: key 1 is evicted by the third distinct access
			// (seq 3) and recalled at seq 5.
			name: "distance counts unique set accesses",
			ops: []op{obs(0, 1), obs(0, 2), obs(0, 3), evict(0, 1),
				obs(0, 4), evict(0, 2), obs(0, 1)},
			samples: 1, evictions: 2, max: 2,
		},
		{
			name:    "repeated accesses count once",
			ops:     []op{obs(0, 1), evict(0, 1), obs(0, 2), obs(0, 2), obs(0, 2), obs(0, 1)},
			samples: 1, evictions: 1, max: 2,
		},
		{
			name:    "other sets do not advance the distance",
			ops:     []op{obs(0, 1), obs(0, 2), evict(0, 1), obs(1, 2), obs(1, 3), obs(0, 1)},
			samples: 1, evictions: 1, max: 1,
		},
		{
			name:    "a recall resolves its eviction once",
			ops:     []op{obs(0, 1), obs(0, 2), evict(0, 1), obs(0, 1), obs(0, 2), obs(0, 1)},
			samples: 1, evictions: 1, max: 1,
		},
		{
			name: "eviction before reset is not recalled",
			ops:  []op{obs(0, 1), obs(0, 2), evict(0, 1), {reset: true}, obs(0, 3), obs(0, 1)},
		},
		{
			// After Reset the first access to a set counts even when it
			// repeats the set's last key from before.
			name:    "reset forgets each set's last key",
			ops:     []op{obs(0, 1), {reset: true}, evict(0, 5), obs(0, 1), obs(0, 5)},
			samples: 1, evictions: 1, max: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewRecallTracker(2)
			for _, o := range tc.ops {
				switch {
				case o.reset:
					tr.Reset()
				case o.evict:
					tr.Evicted(o.set, o.key, mem.ClassTransLeaf)
				default:
					tr.Observe(o.set, o.key)
				}
			}
			r := tr.Recall(mem.ClassTransLeaf)
			if r.Hist.Total() != tc.samples || r.Evictions != tc.evictions {
				t.Fatalf("%d samples for %d evictions, want %d for %d",
					r.Hist.Total(), r.Evictions, tc.samples, tc.evictions)
			}
			if r.Hist.Max() != tc.max {
				t.Errorf("max distance %d, want %d", r.Hist.Max(), tc.max)
			}
			if rr := tr.Recall(mem.ClassReplay); rr.Hist == nil || rr.Hist.Total() != 0 || rr.Evictions != 0 {
				t.Errorf("replay class recorded: %+v", rr)
			}
		})
	}
}

// TestRecallTrackerResetKeepsHandedOut checks that Reset replaces the
// histograms: a Recall read before it (a frozen per-thread row) keeps its
// samples while the tracker keeps counting.
func TestRecallTrackerResetKeepsHandedOut(t *testing.T) {
	tr := NewRecallTracker(1)
	tr.Observe(0, 1)
	tr.Evicted(0, 1, mem.ClassReplay)
	tr.Observe(0, 1)
	frozen := tr.Recall(mem.ClassReplay)
	tr.Reset()
	tr.Observe(0, 2)
	tr.Evicted(0, 2, mem.ClassReplay)
	tr.Observe(0, 2)
	tr.Observe(0, 2)
	if frozen.Hist.Total() != 1 || frozen.Evictions != 1 {
		t.Errorf("frozen recall changed: %d samples, %d evictions", frozen.Hist.Total(), frozen.Evictions)
	}
	if r := tr.Recall(mem.ClassReplay); r.Hist == frozen.Hist || r.Hist.Total() != 1 {
		t.Errorf("tracker after reset: shared=%v samples=%d", r.Hist == frozen.Hist, r.Hist.Total())
	}
}

func TestRecallWithin(t *testing.T) {
	var nilTracker *RecallTracker
	nilTracker.Reset()
	if r := nilTracker.Recall(mem.ClassTransLeaf); r.Hist != nil || r.Valid() || r.Within(50) != 0 {
		t.Errorf("nil tracker recall = %+v", r)
	}
	h := NewHistogram(RecallBounds...)
	for _, d := range []uint64{3, 40, 400} {
		h.Add(d)
	}
	// Four evictions: one never recalled counts at infinite distance.
	r := Recall{Hist: h, Evictions: 4}
	if !r.Valid() {
		t.Error("recall with samples not valid")
	}
	if got := r.Within(50); got != 0.5 {
		t.Errorf("Within(50) = %v, want 0.5", got)
	}
	if got := r.Within(1000); got != 0.75 {
		t.Errorf("Within(1000) = %v, want 0.75", got)
	}
}
