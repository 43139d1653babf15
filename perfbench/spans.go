package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// spans records one span around every call the benchmark makes into the
// program while a traced run is in progress. Spans stay in memory and are
// written at exit as Chrome trace-event JSON (loadable in Perfetto). A nil
// *spans records nothing, so untraced runs pay one nil check per call.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	recs []spanRec
}

type spanRec struct {
	name       string
	id, parent int
	tid        int
	start, end time.Duration
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under parent (0 for a root) on lane tid and returns
// its id.
func (s *spans) begin(name string, parent, tid int) int {
	if s == nil {
		return 0
	}
	now := time.Since(s.t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, spanRec{name: name, id: len(s.recs) + 1, parent: parent, tid: tid, start: now, end: -1})
	return len(s.recs)
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.t0)
	s.mu.Lock()
	s.recs[id-1].end = now
	s.mu.Unlock()
}

// selfTime sums, per span name, the span's duration minus the part of its
// interval that its children cover.
type selfTime struct {
	name        string
	count       int
	total, self time.Duration
}

func (s *spans) selfTimes() []selfTime {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	children := map[int][]spanRec{}
	for _, r := range s.recs {
		if r.parent != 0 {
			children[r.parent] = append(children[r.parent], r)
		}
	}
	byName := map[string]*selfTime{}
	var order []string
	for _, r := range s.recs {
		if r.end < 0 {
			continue
		}
		st, ok := byName[r.name]
		if !ok {
			st = &selfTime{name: r.name}
			byName[r.name] = st
			order = append(order, r.name)
		}
		dur := r.end - r.start
		st.count++
		st.total += dur
		st.self += dur - covered(r, children[r.id])
	}
	out := make([]selfTime, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's: concurrent children must not count twice.
func covered(parent spanRec, kids []spanRec) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		if k.end < 0 {
			continue
		}
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = lo, hi
		} else if hi > curEnd {
			curEnd = hi
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// writeChrome writes the spans as a Chrome trace-event JSON object.
func (s *spans) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	s.encodeChrome(bw)
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

func (s *spans) encodeChrome(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for _, r := range s.recs {
		if r.end < 0 {
			continue
		}
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		fmt.Fprintf(w, "\n"+`{"name":%q,"cat":"perfbench","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
			r.name, r.tid, float64(r.start)/1e3, float64(r.end-r.start)/1e3, r.id, r.parent)
	}
	fmt.Fprint(w, "\n]}\n")
}
