package cache

import (
	"atcsim/internal/mem"
	"atcsim/internal/stats"
)

// recallTracker measures the paper's "recall distance": for a block evicted
// from a set, the number of unique accesses arriving at that set before the
// block is requested again (Figs. 5, 7 and 18). Uniqueness is approximated
// by a per-set sequence that advances whenever the accessed line differs
// from the immediately preceding access to the set, which de-duplicates the
// bursts that would otherwise inflate distances.
type recallTracker struct {
	sets   []recallSet
	hists  [mem.NumClasses]*stats.Histogram
	evicts [mem.NumClasses]uint64
}

type recallSet struct {
	seq      uint64
	lastLine mem.Addr
	// evicted maps a line to the sequence number and fill class at its last
	// eviction from this set.
	evicted map[mem.Addr]evictRec
}

type evictRec struct {
	seq   uint64
	class mem.Class
}

func newRecallTracker(sets int) *recallTracker {
	t := &recallTracker{sets: make([]recallSet, sets)}
	t.reset()
	return t
}

// observe records one demand/translation access to a set, resolving any
// pending recall measurement for the accessed line.
func (t *recallTracker) observe(set int, line mem.Addr, _ mem.Class) {
	s := &t.sets[set]
	if line != s.lastLine || s.seq == 0 {
		s.seq++
		s.lastLine = line
	}
	if s.evicted == nil {
		return
	}
	if rec, ok := s.evicted[line]; ok {
		t.hists[rec.class].Add(s.seq - rec.seq)
		delete(s.evicted, line)
	}
}

// evicted registers an eviction so a future re-access can report its recall
// distance. Only translation and replay blocks are tracked — the classes
// the paper's figures need — to bound memory.
func (t *recallTracker) evicted(set int, line mem.Addr, class mem.Class) {
	if class != mem.ClassTransLeaf && class != mem.ClassReplay {
		return
	}
	s := &t.sets[set]
	if s.evicted == nil {
		s.evicted = make(map[mem.Addr]evictRec)
	}
	t.evicts[class]++
	s.evicted[line] = evictRec{seq: s.seq, class: class}
}

func (t *recallTracker) hist(c mem.Class) *stats.Histogram { return t.hists[c] }

func (t *recallTracker) evictions(c mem.Class) uint64 { return t.evicts[c] }

// reset starts fresh histograms (ones handed out earlier keep their
// samples) and forgets every pending eviction.
func (t *recallTracker) reset() {
	for c := range t.hists {
		t.hists[c] = stats.NewHistogram(stats.RecallBounds...)
	}
	t.evicts = [mem.NumClasses]uint64{}
	for i := range t.sets {
		t.sets[i].evicted = nil
		t.sets[i].seq = 0
		t.sets[i].lastLine = 0
	}
}
