package trace

// CursorBlock is the number of instructions a Cursor hands out per block.
// Each block start counts as one refill, the
// sim_parallel_trace_refills_total metric source.
const CursorBlock = 1024

// Cursor streams a trace's instructions in CursorBlock-sized blocks,
// replaying the trace cyclically like the simulation engine requires. It
// reads the trace in place: nothing is copied, so a cursor adds no per-core
// buffer and iteration performs zero allocations. The trace is only read,
// so cores stepping on separate goroutines may share one. A Cursor is
// single-consumer and not safe for concurrent use; give each core its own.
type Cursor struct {
	src     []Inst
	pos     int // next source index to read
	end     int // end of the current block
	refills uint64
}

// NewCursor builds a cursor over t, which must hold at least one
// instruction (the engine validates traces before building cursors).
func NewCursor(t *Trace) *Cursor {
	if len(t.Insts) == 0 {
		panic("trace: NewCursor on empty trace " + t.Name)
	}
	return &Cursor{src: t.Insts}
}

// Next returns the next instruction, wrapping to the start of the trace
// when it ends. The pointer is into the trace itself: callers must not
// modify the instruction.
func (c *Cursor) Next() *Inst {
	if c.pos == c.end {
		c.refill()
	}
	in := &c.src[c.pos]
	c.pos++
	return in
}

// refill starts the next block. The block near the end of the trace may be
// short; the next refill wraps to the start.
func (c *Cursor) refill() {
	if c.pos == len(c.src) {
		c.pos = 0
	}
	c.end = min(c.pos+CursorBlock, len(c.src))
	c.refills++
}

// Refills returns how many blocks the cursor has started — the
// sim_parallel_trace_refills_total metric source.
func (c *Cursor) Refills() uint64 { return c.refills }
