package metrics

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// RunState is the lifecycle state of one run key in a RunTable.
type RunState string

// Run lifecycle states, in the order a run moves through them. A run served
// from the on-disk result cache goes straight to StateCached.
const (
	StateQueued  RunState = "queued"
	StateRunning RunState = "running"
	StateDone    RunState = "done"
	StateFailed  RunState = "failed"
	StateCached  RunState = "cached"
)

// runStates lists every state for snapshot counting.
var runStates = []RunState{StateQueued, StateRunning, StateDone, StateFailed, StateCached}

// RunInfo is the live view of one run, as served by /runs.
type RunInfo struct {
	// Key is the run's experiment identity ("label/benchmark").
	Key string `json:"key"`
	// Hash is the canonical run-key hash (the disk-cache identity).
	Hash string `json:"hash,omitempty"`
	// State is the current lifecycle state.
	State RunState `json:"state"`
	// ElapsedMS is wall time since the run was first queued, frozen when it
	// reaches a terminal state.
	ElapsedMS int64 `json:"elapsed_ms"`
	// Error is the failure reason (failed runs only).
	Error string `json:"error,omitempty"`
}

// runEntry is the mutable table entry behind a RunInfo.
type runEntry struct {
	info    RunInfo
	started time.Time
	frozen  bool
}

// RunTable tracks the live state of every run key a sweep has touched —
// the data behind the /runs endpoint. All methods are nil-safe and cheap
// (one mutex, no allocation on state transitions), but this is runner-rate
// machinery, not per-request: it is updated a handful of times per
// simulation, never on the simulated memory path.
type RunTable struct {
	mu    sync.Mutex
	runs  map[string]*runEntry
	order []string
	now   func() time.Time // test seam
}

// NewRunTable creates an empty run table.
func NewRunTable() *RunTable {
	return &RunTable{runs: make(map[string]*runEntry), now: time.Now}
}

// entry finds or creates the entry for key; callers hold mu.
func (t *RunTable) entry(key string) *runEntry {
	e, ok := t.runs[key]
	if !ok {
		e = &runEntry{info: RunInfo{Key: key, State: StateQueued}, started: t.now()}
		t.runs[key] = e
		t.order = append(t.order, key)
	}
	return e
}

// Queued marks a run as queued with its canonical hash.
func (t *RunTable) Queued(key, hash string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entry(key)
	e.info.Hash = hash
	e.info.State = StateQueued
}

// Running marks a run as executing.
func (t *RunTable) Running(key string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entry(key).info.State = StateRunning
}

// finish moves a run to a terminal state and freezes its elapsed time.
func (t *RunTable) finish(key string, state RunState, errMsg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entry(key)
	e.info.State = state
	e.info.Error = errMsg
	e.info.ElapsedMS = t.now().Sub(e.started).Milliseconds()
	e.frozen = true
}

// Done marks a run as completed successfully.
func (t *RunTable) Done(key string) { t.finish(key, StateDone, "") }

// Failed marks a run as failed.
func (t *RunTable) Failed(key, errMsg string) { t.finish(key, StateFailed, errMsg) }

// Cached marks a run as served from the on-disk result cache.
func (t *RunTable) Cached(key string) { t.finish(key, StateCached, "") }

// Snapshot returns every run in first-seen order, with live elapsed times
// computed at call time, plus per-state counts.
func (t *RunTable) Snapshot() ([]RunInfo, map[RunState]int) {
	counts := make(map[RunState]int, len(runStates))
	for _, s := range runStates {
		counts[s] = 0
	}
	if t == nil {
		return nil, counts
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RunInfo, 0, len(t.order))
	now := t.now()
	for _, key := range t.order {
		e := t.runs[key]
		info := e.info
		if !e.frozen {
			info.ElapsedMS = now.Sub(e.started).Milliseconds()
		}
		out = append(out, info)
		counts[info.State]++
	}
	return out, counts
}

// Count returns the number of runs currently in the given state.
func (t *RunTable) Count(state RunState) int {
	_, counts := t.Snapshot()
	return counts[state]
}

// Register exposes per-state run counts as gauges
// (runner_run_states{state="running"} …) on the registry. The family is
// deliberately NOT runner_runs: that is already the OpenMetrics family name
// of the runner_runs_total counter, and one family cannot be both kinds.
func (t *RunTable) Register(r *Registry) {
	for _, s := range runStates {
		state := s
		r.GaugeFunc("runner_run_states", "Number of run keys per lifecycle state.",
			func() float64 { return float64(t.Count(state)) }, L("state", string(state)))
	}
}

// WriteJSON renders the /runs payload: the run list plus per-state counts.
func (t *RunTable) WriteJSON(w io.Writer) error {
	runs, counts := t.Snapshot()
	payload := struct {
		Counts map[RunState]int `json:"counts"`
		Runs   []RunInfo        `json:"runs"`
	}{Counts: counts, Runs: runs}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}
