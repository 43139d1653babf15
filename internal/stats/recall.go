package stats

import "atcsim/internal/mem"

// RecallBounds are the default recall-distance buckets used by Figs. 5/7/18.
var RecallBounds = []uint64{10, 25, 50, 100, 200, 500, 1000}

// Recall pairs a recall-distance histogram with the eviction count that is
// its denominator: evicted blocks that were never recalled have infinite
// recall distance, so fractions must be computed against Evictions, not
// against the histogram's sample count.
type Recall struct {
	Hist      *Histogram
	Evictions uint64
}

// Within returns the fraction of evicted blocks recalled within the given
// distance.
func (r Recall) Within(bound uint64) float64 {
	if r.Hist == nil || r.Evictions == 0 {
		return 0
	}
	recalled := float64(r.Hist.FractionAtMost(bound)) * float64(r.Hist.Total())
	return recalled / float64(r.Evictions)
}

// Valid reports whether any recall data was collected.
func (r Recall) Valid() bool { return r.Hist != nil && r.Evictions > 0 }

// RecallTracker measures the paper's "recall distance" at one
// set-associative structure (a cache level or the STLB): for a key (line
// or VPN) evicted from a set, the number of unique accesses arriving at
// that set before the key is requested again (Figs. 5, 7 and 18).
// Uniqueness is approximated by a per-set sequence that advances whenever
// the accessed key differs from the immediately preceding access to the
// set, which de-duplicates the bursts that would otherwise inflate
// distances. A nil tracker (tracking off) reports empty Recalls and
// ignores Reset; callers test for nil before Observe and Evicted, so
// their hot paths pay one branch.
type RecallTracker struct {
	seq  []uint64   // per-set unique-access sequence
	last []mem.Addr // per-set key of the previous access
	// evicted maps a key to the sequence number and class at its last
	// eviction. A key fixes its set, so one map serves every set.
	evicted map[mem.Addr]recallEvict
	hists   [mem.NumClasses]*Histogram
	evicts  [mem.NumClasses]uint64
}

type recallEvict struct {
	seq   uint64
	class mem.Class
}

// NewRecallTracker returns a tracker for a structure of the given set count.
func NewRecallTracker(sets int) *RecallTracker {
	t := &RecallTracker{
		seq:     make([]uint64, sets),
		last:    make([]mem.Addr, sets),
		evicted: make(map[mem.Addr]recallEvict),
	}
	t.Reset()
	return t
}

// Observe records one access of key to set, resolving a pending recall
// measurement for key.
func (t *RecallTracker) Observe(set int, key mem.Addr) {
	if key != t.last[set] || t.seq[set] == 0 {
		t.seq[set]++
		t.last[set] = key
	}
	if ev, ok := t.evicted[key]; ok {
		t.hists[ev.class].Add(t.seq[set] - ev.seq)
		delete(t.evicted, key)
	}
}

// Evicted registers the eviction of key, filled as class, from set, so a
// later Observe of key reports its recall distance.
func (t *RecallTracker) Evicted(set int, key mem.Addr, class mem.Class) {
	t.evicts[class]++
	t.evicted[key] = recallEvict{seq: t.seq[set], class: class}
}

// Recall returns the distribution of class c since the last Reset.
func (t *RecallTracker) Recall(c mem.Class) Recall {
	if t == nil {
		return Recall{}
	}
	return Recall{Hist: t.hists[c], Evictions: t.evicts[c]}
}

// Reset starts a measurement: fresh histograms (ones handed out earlier
// keep their samples, so a frozen row never shares one with a running
// thread), zero evictions, no pending evictions and every set's sequence
// restarted. A key evicted before Reset is not recalled after it, since
// its eviction is not counted.
func (t *RecallTracker) Reset() {
	if t == nil {
		return
	}
	for c := range t.hists {
		t.hists[c] = NewHistogram(RecallBounds...)
	}
	t.evicts = [mem.NumClasses]uint64{}
	clear(t.evicted)
	clear(t.seq)
	clear(t.last)
}
