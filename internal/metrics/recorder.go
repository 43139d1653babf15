package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// EventKind classifies a flight-recorder event.
type EventKind string

// Flight-recorder event kinds, in canonical dump order.
const (
	EventRunStarted  EventKind = "run-started"
	EventRunDone     EventKind = "run-done"
	EventRunFailed   EventKind = "run-failed"
	EventPanic       EventKind = "panic"
	EventFault       EventKind = "fault-injected"
	EventQuarantine  EventKind = "quarantine"
	EventAudit       EventKind = "invariant-audit"
	EventDiskError   EventKind = "disk-error"
	EventSweepCancel EventKind = "sweep-canceled"
)

// kindRank orders kinds within one run's events in the canonical dump.
var kindRank = map[EventKind]int{
	EventRunStarted: 0, EventFault: 1, EventDiskError: 2, EventQuarantine: 3,
	EventAudit: 4, EventRunDone: 5, EventRunFailed: 6, EventPanic: 7,
	EventSweepCancel: 8,
}

// Event is one structured flight-recorder record. Events deliberately carry
// no wall-clock timestamps or memory addresses: given a seeded fault plan,
// the recorded set is identical for any worker count, so post-mortems are
// reproducible and diffable (see DumpCanonical).
type Event struct {
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Run is the run identity ("label/benchmark") the event belongs to, or
	// "" for sweep-level events.
	Run string `json:"run,omitempty"`
	// Attempt is 1 on run events (each run is a single attempt) and the
	// fault rule's per-identity hit count on fault events; 0 elsewhere.
	Attempt int `json:"attempt,omitempty"`
	// Detail is a stable, human-readable elaboration (error text, fault
	// rule, audit verdict).
	Detail string `json:"detail,omitempty"`
}

// FlightRecorder is a fixed-size ring buffer of recent structured events,
// dumped to disk when a run fails permanently (or on demand) so FAILED
// reports come with a post-mortem. Recording is mutex-guarded but
// allocation-free once the ring is warm; this is runner-rate machinery and
// never sits on the simulated memory path. All methods are nil-safe.
type FlightRecorder struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	wrapped bool
	total   uint64
	sink    string
}

// DefaultRecorderCapacity bounds the ring when callers pass 0.
const DefaultRecorderCapacity = 1024

// NewFlightRecorder creates a recorder holding the last capacity events
// (DefaultRecorderCapacity when capacity is not positive).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &FlightRecorder{buf: make([]Event, 0, capacity)}
}

// SetSink sets the file path DumpToSink writes. Empty disables dumping.
func (r *FlightRecorder) SetSink(path string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = path
	r.mu.Unlock()
}

// Sink returns the configured dump path ("" when disabled).
func (r *FlightRecorder) Sink() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sink
}

// Record appends one event, overwriting the oldest once the ring is full.
func (r *FlightRecorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	r.wrapped = true
}

// Recordf is Record with a formatted detail string.
func (r *FlightRecorder) Recordf(kind EventKind, run string, attempt int, format string, args ...any) {
	if r == nil {
		return
	}
	r.Record(Event{Kind: kind, Run: run, Attempt: attempt, Detail: fmt.Sprintf(format, args...)})
}

// Events returns the retained events in arrival order.
func (r *FlightRecorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if r.wrapped {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Total returns how many events were ever recorded (including overwritten
// ones).
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events the ring has overwritten.
func (r *FlightRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.buf))
}

// Canonical returns the retained events in canonical order: sorted by run
// identity, then attempt, then kind rank, then detail. Because events carry
// no timestamps and fault plans match stable run identities, the canonical
// dump of a sweep is byte-identical for any -jobs value (as long as the
// ring has not overwritten events; size it generously for chaos tests).
func (r *FlightRecorder) Canonical() []Event {
	evs := r.Events()
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		if a.Attempt != b.Attempt {
			return a.Attempt < b.Attempt
		}
		if kindRank[a.Kind] != kindRank[b.Kind] {
			return kindRank[a.Kind] < kindRank[b.Kind]
		}
		return a.Detail < b.Detail
	})
	return evs
}

// WriteTo writes the canonical dump as JSONL, one event per line.
func (r *FlightRecorder) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, e := range r.Canonical() {
		b, err := json.Marshal(e)
		if err != nil {
			return n, err
		}
		b = append(b, '\n')
		m, err := w.Write(b)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// DumpToSink rewrites the sink file with the current canonical dump
// (atomically, via a temp-file rename). A recorder without a sink is a
// no-op. Called on every permanent run failure, so the newest post-mortem
// always wins.
func (r *FlightRecorder) DumpToSink() error {
	path := r.Sink()
	if path == "" {
		return nil
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := r.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Register exposes recorder occupancy on the registry.
func (r *FlightRecorder) Register(reg *Registry) {
	reg.CounterFunc("flightrecorder_events_total",
		"Structured events recorded by the crash flight recorder.",
		func() float64 { return float64(r.Total()) })
	reg.CounterFunc("flightrecorder_dropped_total",
		"Flight-recorder events overwritten by ring wraparound.",
		func() float64 { return float64(r.Dropped()) })
}
