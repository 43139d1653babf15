package simserver

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"atcsim/internal/system"
	"atcsim/internal/workloads"
	"atcsim/internal/xlat"
)

// RunRequest is the JSON body of POST /v1/run and POST /v1/key: one
// single-core simulation, identified by workload, trace seed and the
// configuration knobs the service exposes. Identical requests map to the
// same content-addressed run key and therefore the same cache entry —
// repeating a request is always safe and always byte-identical.
type RunRequest struct {
	// Workload is the benchmark name (required; see workloads.Names).
	Workload string `json:"workload"`
	// Seed selects the synthesized trace instance (any value; requests with
	// different seeds are distinct runs).
	Seed int64 `json:"seed"`
	// Enhancement is the cumulative enhancement level: "baseline" (default
	// when empty), "t-drrip", "t-ship", "atp" or "tempo".
	Enhancement string `json:"enhancement,omitempty"`
	// Mechanism overrides the translation mechanism servicing STLB misses
	// (see xlat.Names); empty keeps the enhancement level's choice.
	Mechanism string `json:"mechanism,omitempty"`
	// Timing selects the hierarchy timing engine ("analytic" or "queued");
	// empty and "analytic" share run keys.
	Timing string `json:"timing,omitempty"`
	// TimeoutMS, when positive, overrides the server's per-run deadline for
	// this request (milliseconds).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// RunResponse is the JSON body of a successful POST /v1/run (and, without
// Source/Result, of POST /v1/key).
type RunResponse struct {
	// Key is the content-addressed run key (hex SHA-256 of the canonical
	// key encoding) — the identity of the cache entry this result lives in.
	Key string `json:"key"`
	// Kind is the request's enhancement/workload pair.
	Kind string `json:"kind"`
	// Source reports where the result came from: "computed" (this request
	// performed the simulation), "disk" (loaded from the on-disk store) or
	// "shared" (coalesced onto a concurrent identical request).
	Source string `json:"source,omitempty"`
	// Result is the simulation result, verbatim as cached.
	Result json.RawMessage `json:"result,omitempty"`
}

// enhancementNames maps wire names to enhancement levels.
var enhancementNames = func() map[string]system.Enhancement {
	m := make(map[string]system.Enhancement)
	for _, e := range system.Enhancements() {
		m[e.String()] = e
	}
	return m
}()

// enhancementList renders the accepted enhancement names for error messages.
func enhancementList() string {
	names := make([]string, 0, len(system.Enhancements()))
	for _, e := range system.Enhancements() {
		names = append(names, e.String())
	}
	return strings.Join(names, ", ")
}

// validate checks the request against the service's registries and resolves
// the enhancement level. It does not touch the engine.
func (q *RunRequest) validate() (system.Enhancement, error) {
	if q.Workload == "" {
		return 0, fmt.Errorf("missing workload (one of %s)", strings.Join(workloads.Names(), ", "))
	}
	if _, err := workloads.ByName(q.Workload); err != nil {
		return 0, err
	}
	name := q.Enhancement
	if name == "" {
		name = system.Baseline.String()
	}
	level, ok := enhancementNames[name]
	if !ok {
		return 0, fmt.Errorf("unknown enhancement %q (one of %s)", q.Enhancement, enhancementList())
	}
	if q.Mechanism != "" && !xlat.Registered(q.Mechanism) {
		return 0, fmt.Errorf("unknown mechanism %q (one of %s)", q.Mechanism, strings.Join(xlat.Names(), ", "))
	}
	if q.Timing != "" && !system.TimingRegistered(q.Timing) {
		return 0, fmt.Errorf("unknown timing model %q (one of %s)", q.Timing, strings.Join(system.TimingModels(), ", "))
	}
	if q.TimeoutMS < 0 {
		return 0, fmt.Errorf("negative timeout_ms %d", q.TimeoutMS)
	}
	return level, nil
}

// kind names the request's enhancement/workload pair.
func (q *RunRequest) kind() string {
	name := q.Enhancement
	if name == "" {
		name = system.Baseline.String()
	}
	return name + "/" + q.Workload
}

// label is the engine run label requests carry (progress output, run
// errors); the engine appends the workload and the run-key hash to name
// the run in the flight recorder and the /runs table.
func (q *RunRequest) label() string {
	name := q.Enhancement
	if name == "" {
		name = system.Baseline.String()
	}
	return "svc:" + name
}

// timeout resolves the request's per-run deadline (zero = server default).
func (q *RunRequest) timeout() time.Duration {
	if q.TimeoutMS > 0 {
		return time.Duration(q.TimeoutMS) * time.Millisecond
	}
	return 0
}

// mod builds the configuration modifier the engine applies on top of the
// scale-adjusted base configuration — the same path sweep experiments use,
// so service requests and sweep runs share cache entries.
func (q *RunRequest) mod(level system.Enhancement) func(*system.Config) {
	mechanism, timing := q.Mechanism, q.Timing
	return func(c *system.Config) {
		c.Apply(level)
		if mechanism != "" {
			c.Mechanism = mechanism
		}
		if timing != "" && timing != system.TimingAnalytic {
			c.Timing = timing
		}
	}
}
