package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// Row is one heartbeat interval: the counters' growth between two
// consecutive ticks of the measured phase.
type Row struct {
	Index        int     `json:"interval"`
	EndCycle     int64   `json:"end_cycle"`
	Cycles       int64   `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	IPC          float64 `json:"ipc"`

	L1DMPKI       float64 `json:"l1d_mpki"`
	L2MPKI        float64 `json:"l2_mpki"`
	LLCMPKI       float64 `json:"llc_mpki"`
	LLCReplayMPKI float64 `json:"llc_replay_mpki"`
	LLCLeafMPKI   float64 `json:"llc_leaf_mpki"`

	STLBMissRate float64 `json:"stlb_miss_rate"`
	STLBMPKI     float64 `json:"stlb_mpki"`
	TransHitRate float64 `json:"trans_hit_rate"`

	StallTranslation uint64 `json:"stall_translation"`
	StallReplay      uint64 `json:"stall_replay"`
	StallNonReplay   uint64 `json:"stall_nonreplay"`
	StallOther       uint64 `json:"stall_other"`

	DRAMRowHitRate float64 `json:"dram_row_hit_rate"`
}

// Format selects the heartbeat stream encoding.
type Format int

// Heartbeat stream encodings.
const (
	FormatCSV Format = iota
	FormatJSONL
)

// CSVHeader is the column order of FormatCSV rows.
const CSVHeader = "interval,end_cycle,cycles,instructions,ipc," +
	"l1d_mpki,l2_mpki,llc_mpki,llc_replay_mpki,llc_leaf_mpki," +
	"stlb_miss_rate,stlb_mpki,trans_hit_rate," +
	"stall_translation,stall_replay,stall_nonreplay,stall_other," +
	"dram_row_hit_rate"

// Heartbeat numbers interval rows, streams them to an optional writer and
// counts them; it keeps no row. It has no cadence of its own: rows
// arrive from whatever ticks it (system.HeartbeatTick, on the simulator's
// Config.OnTick). Like the tracer it is a pure observer.
type Heartbeat struct {
	w      io.Writer
	format Format
	count  int // rows ticked so far
	err    error
}

// NewHeartbeat creates a heartbeat streaming to w in format; w may be nil
// to only count rows.
func NewHeartbeat(w io.Writer, format Format) *Heartbeat {
	return &Heartbeat{w: w, format: format}
}

// Tick numbers the next interval row, then counts and streams it. A CSV
// stream gets its header with the first row, so a heartbeat that never
// ticks writes nothing.
func (h *Heartbeat) Tick(row Row) {
	if h == nil {
		return
	}
	row.Index = h.count
	h.count++
	h.write(row)
}

func (h *Heartbeat) write(r Row) {
	if h.w == nil {
		return
	}
	switch h.format {
	case FormatJSONL:
		b, err := json.Marshal(r)
		if err == nil {
			b = append(b, '\n')
			_, err = h.w.Write(b)
		}
		h.setErr(err)
	default:
		if r.Index == 0 {
			_, err := fmt.Fprintln(h.w, CSVHeader)
			h.setErr(err)
		}
		_, err := fmt.Fprintf(h.w,
			"%d,%d,%d,%d,%.6f,%.4f,%.4f,%.4f,%.4f,%.4f,%.6f,%.4f,%.6f,%d,%d,%d,%d,%.6f\n",
			r.Index, r.EndCycle, r.Cycles, r.Instructions, r.IPC,
			r.L1DMPKI, r.L2MPKI, r.LLCMPKI, r.LLCReplayMPKI, r.LLCLeafMPKI,
			r.STLBMissRate, r.STLBMPKI, r.TransHitRate,
			r.StallTranslation, r.StallReplay, r.StallNonReplay, r.StallOther,
			r.DRAMRowHitRate)
		h.setErr(err)
	}
}

func (h *Heartbeat) setErr(err error) {
	if h.err == nil && err != nil {
		h.err = err
	}
}

// Count returns how many interval rows have ticked so far.
func (h *Heartbeat) Count() int {
	if h == nil {
		return 0
	}
	return h.count
}

// Err returns the first stream-write error, if any.
func (h *Heartbeat) Err() error {
	if h == nil {
		return nil
	}
	return h.err
}
