package telemetry

import (
	"bufio"
	"fmt"
	"io"

	"atcsim/internal/mem"
)

// Lane identifies the per-core Perfetto track an event is drawn on. Each
// simulated core becomes one trace "process"; lanes are its named threads,
// so a sampled request reads top-to-bottom: pipeline → MMU → page walk →
// caches → DRAM.
type Lane int32

// Lanes, ordered as displayed.
const (
	LaneRequest Lane = iota // the enclosing instruction span + replay issue
	LaneMMU                 // DTLB/STLB lookups and TLB events
	LanePTW                 // per-level page-walk steps
	LaneCache               // L1I/L1D/L2C/LLC lookups
	LaneDRAM                // bank/bus service slots
	LaneStall               // ROB-head stall spans (unsampled)
	numLanes
)

func (l Lane) String() string {
	switch l {
	case LaneRequest:
		return "pipeline"
	case LaneMMU:
		return "mmu"
	case LanePTW:
		return "ptw"
	case LaneCache:
		return "cache"
	case LaneDRAM:
		return "dram"
	case LaneStall:
		return "rob-stall"
	}
	return "unknown"
}

// Arg is one key/value annotation on an event. Str takes precedence when
// non-empty; otherwise Val is emitted as an integer.
type Arg struct {
	Key string
	Str string
	Val int64
}

// SArg builds a string-valued argument.
func SArg(key, val string) Arg { return Arg{Key: key, Str: val} }

// IArg builds an integer-valued argument.
func IArg(key string, val int64) Arg { return Arg{Key: key, Val: val} }

// maxArgs bounds per-event annotations so Event stays a flat value type and
// ring-buffer slots are reused without allocation.
const maxArgs = 3

// Event is one Chrome trace event. Phase 'X' is a complete span (Ts..Ts+Dur),
// 'i' an instant. Timestamps are simulated cycles, written 1 cycle = 1 µs so
// Perfetto's time axis reads directly in cycles.
type Event struct {
	Name  string
	Cat   string
	Core  int32
	Lane  Lane
	Phase byte
	Ts    int64
	Dur   int64
	Args  [maxArgs]Arg
	NArgs int32
	Seq   uint64 // insertion sequence, for stable ordering and tests
}

// DefaultSampleEvery is the default sampling period: one in every N memory
// instructions gets its full lifecycle recorded.
const DefaultSampleEvery = 32

// DefaultBufferEvents is the default ring capacity. At ~12 events per
// sampled request this holds the last ~5K sampled requests.
const DefaultBufferEvents = 1 << 16

// Tracer records sampled request lifecycles into a bounded ring buffer.
// It is single-threaded, like the simulator. The zero value is not useful;
// a nil *Tracer is valid everywhere and disables tracing.
type Tracer struct {
	sampleEvery uint64
	seen        uint64 // memory instructions observed
	seq         uint64 // events emitted (ever)

	cur Sample // the in-flight sampled request

	buf   []Event
	next  int
	cores int32 // highest core id seen + 1 (for metadata emission)
}

// NewTracer creates a tracer sampling one in sampleEvery memory instructions
// into a ring of capacity events. Non-positive arguments fall back to the
// defaults.
func NewTracer(capacity, sampleEvery int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultBufferEvents
	}
	if sampleEvery <= 0 {
		sampleEvery = DefaultSampleEvery
	}
	return &Tracer{
		sampleEvery: uint64(sampleEvery),
		buf:         make([]Event, 0, capacity),
	}
}

// Enabled reports whether the tracer exists at all. Unsampled event sources
// (ROB-stall spans) gate on this instead of Active.
func (t *Tracer) Enabled() bool { return t != nil }

// Active reports whether a sampled request is currently in flight; component
// hooks guard on this so the disabled path is a single nil check.
func (t *Tracer) Active() bool { return t != nil && t.cur.active }

// BeginSample is called by the pipeline for every memory instruction; one in
// sampleEvery becomes the tracked request. It returns whether the request is
// sampled (callers normally ignore this and use Active).
func (t *Tracer) BeginSample(core int, kind string, ip, va mem.Addr, cycle int64) bool {
	if t == nil {
		return false
	}
	t.seen++
	if t.seen%t.sampleEvery != 0 {
		return false
	}
	t.cur = Sample{active: true, core: int32(core), now: cycle}
	t.Instant("request", "begin "+kind, LaneRequest,
		IArg("ip", int64(ip)), IArg("va", int64(va)), IArg("sample", int64(t.seen/t.sampleEvery)))
	return true
}

// EndSample closes the tracked request with its enclosing span.
func (t *Tracer) EndSample(kind string, complete int64) {
	if t == nil || !t.cur.active {
		return
	}
	t.span(Event{
		Name: kind, Cat: "request", Core: t.cur.core, Lane: LaneRequest,
		Ts: t.cur.now, Dur: complete - t.cur.now,
	})
	t.cur.active = false
}

// Sample is the in-flight sampled request's context. A scheduler that parks
// a core mid-step carries the core's sample with it (Suspend before parking,
// Resume on return), so other cores' events never land in it.
type Sample struct {
	active bool
	core   int32
	now    int64
}

// Suspend detaches and returns the in-flight sample, leaving none active.
func (t *Tracer) Suspend() (s Sample) {
	if t != nil {
		s, t.cur.active = t.cur, false
	}
	return s
}

// Resume reattaches a sample detached by Suspend.
func (t *Tracer) Resume(s Sample) {
	if t == nil {
		return
	}
	t.cur = s
}

// Now returns the dispatch cycle of the in-flight sampled request; instants
// from components without their own clock (TLB evictions) land here.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.cur.now
}

// Span records a complete event on the active request's core.
func (t *Tracer) Span(cat, name string, lane Lane, start, end int64, args ...Arg) {
	if t == nil || !t.cur.active {
		return
	}
	ev := Event{Name: name, Cat: cat, Core: t.cur.core, Lane: lane, Ts: start, Dur: end - start}
	fillArgs(&ev, args)
	t.span(ev)
}

// SpanOn is Span with an explicit core, for shared components (LLC, DRAM)
// that service several cores.
func (t *Tracer) SpanOn(core int, cat, name string, lane Lane, start, end int64, args ...Arg) {
	if t == nil || !t.cur.active {
		return
	}
	ev := Event{Name: name, Cat: cat, Core: int32(core), Lane: lane, Ts: start, Dur: end - start}
	fillArgs(&ev, args)
	t.span(ev)
}

// Instant records a zero-duration event at the active request's current
// cycle.
func (t *Tracer) Instant(cat, name string, lane Lane, args ...Arg) {
	if t == nil || !t.cur.active {
		return
	}
	ev := Event{Name: name, Cat: cat, Core: t.cur.core, Lane: lane, Phase: 'i', Ts: t.cur.now}
	fillArgs(&ev, args)
	t.emit(ev)
}

// StallSpan records an unsampled ROB-head stall span; it bypasses the
// active-request gate (stalls attribute at retirement, long after the
// triggering request's window closed).
func (t *Tracer) StallSpan(core int, class string, start, end int64) {
	if t == nil {
		return
	}
	t.emit(Event{
		Name: "stall:" + class, Cat: "cpu", Core: int32(core), Lane: LaneStall,
		Phase: 'X', Ts: start, Dur: end - start, NArgs: 0,
	})
}

func fillArgs(ev *Event, args []Arg) {
	n := len(args)
	if n > maxArgs {
		n = maxArgs
	}
	for i := 0; i < n; i++ {
		ev.Args[i] = args[i]
	}
	ev.NArgs = int32(n)
}

func (t *Tracer) span(ev Event) {
	ev.Phase = 'X'
	if ev.Dur < 0 {
		ev.Dur = 0
	}
	t.emit(ev)
}

func (t *Tracer) emit(ev Event) {
	if ev.Core+1 > t.cores {
		t.cores = ev.Core + 1
	}
	ev.Seq = t.seq
	t.seq++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
		return
	}
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
}

// Sampled returns how many requests have been selected for tracing.
func (t *Tracer) Sampled() uint64 {
	if t == nil {
		return 0
	}
	return t.seen / t.sampleEvery
}

// Dropped returns how many events were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	if retained := uint64(len(t.buf)); t.seq > retained {
		return t.seq - retained
	}
	return 0
}

// Events returns the retained events oldest-first. The slice aliases the
// ring; callers must not retain it across further emission.
func (t *Tracer) Events() []Event {
	if t == nil || len(t.buf) == 0 {
		return nil
	}
	if len(t.buf) < cap(t.buf) || t.next == 0 {
		return t.buf
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// WriteChromeTrace emits the retained events as Chrome trace-event JSON
// (object form, with a traceEvents array), directly loadable in Perfetto and
// chrome://tracing. Cycle timestamps are written as microseconds.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}
	if t != nil {
		for core := int32(0); core < t.cores; core++ {
			sep()
			fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"core %d"}}`, core, core)
			for lane := Lane(0); lane < numLanes; lane++ {
				sep()
				fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"%s"}}`, core, lane, lane)
				sep()
				fmt.Fprintf(bw, `{"name":"thread_sort_index","ph":"M","pid":%d,"tid":%d,"args":{"sort_index":%d}}`, core, lane, lane)
			}
		}
		evs := t.Events()
		for i := range evs {
			sep()
			writeEvent(bw, &evs[i])
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

func writeEvent(bw *bufio.Writer, ev *Event) {
	fmt.Fprintf(bw, `{"name":%q,"cat":%q,"ph":%q,"pid":%d,"tid":%d,"ts":%d`,
		ev.Name, ev.Cat, string(ev.Phase), ev.Core, ev.Lane, ev.Ts)
	if ev.Phase == 'X' {
		fmt.Fprintf(bw, `,"dur":%d`, ev.Dur)
	}
	if ev.Phase == 'i' {
		bw.WriteString(`,"s":"t"`)
	}
	if ev.NArgs > 0 {
		bw.WriteString(`,"args":{`)
		for i := int32(0); i < ev.NArgs; i++ {
			if i > 0 {
				bw.WriteByte(',')
			}
			a := &ev.Args[i]
			if a.Str != "" {
				fmt.Fprintf(bw, "%q:%q", a.Key, a.Str)
			} else {
				fmt.Fprintf(bw, "%q:%d", a.Key, a.Val)
			}
		}
		bw.WriteByte('}')
	}
	bw.WriteByte('}')
}
