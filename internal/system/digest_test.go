package system

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"testing"

	"atcsim/internal/metrics"
	"atcsim/internal/telemetry"
	"atcsim/internal/trace"
	"atcsim/internal/workloads"
)

// observed is what a pinned run's observers wrote: the heartbeat CSV and
// the sim_* gauge JSONL lines snapshotted at every heartbeat tick.
type observed struct {
	csv, gauges bytes.Buffer
}

// progressPair matches the sim_instructions_done/_total series of a JSONL
// snapshot line. The gauge pin leaves them out;
// TestTelemetryDoesNotPerturbTiming checks their values exactly.
var progressPair = regexp.MustCompile(`"sim_instructions_(done|total)":[^,}]*,`)

// observe attaches a heartbeat streaming CSV every `every` instructions
// and, when gauges is set, live sim_* gauges snapshotted into JSONL at
// each tick.
func (o *observed) observe(cfg *Config, every int, gauges bool) {
	cfg.Telemetry = &telemetry.Hub{Heartbeat: telemetry.NewHeartbeat(&o.csv, telemetry.FormatCSV, every)}
	if gauges {
		reg := metrics.New()
		g := NewLiveGauges(reg)
		seq := 0
		cfg.OnTick = func(r *Result) {
			g.Publish(r)
			var line bytes.Buffer
			reg.WriteJSONLSnapshot(&line, seq)
			o.gauges.Write(progressPair.ReplaceAll(line.Bytes(), nil))
			seq++
		}
	}
}

// mixTraces builds the 4-core pr,mcf,cc,xalancbmk mix, core i at seed 1+i.
func mixTraces(t *testing.T, n int) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for i, name := range []string{"pr", "mcf", "cc", "xalancbmk"} {
		s, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s.Build(n, int64(1+i)))
	}
	return out
}

// TestResultDigestsPinned pins the Result JSON of single-core and SMT runs
// to SHA-256 digests, so a scheduler change that claims to keep one-unit
// machines step-for-step identical is checked byte for byte. No report
// golden covers SMT. The observed runs also pin what their observers
// wrote — heartbeat CSVs of single-core, SMT and 4-core runs, and the
// sim_* gauge lines at every tick of a single-core and a 4-core run — so
// a rewrite of the observation path is held to the same bytes. A
// deliberate model change updates the digests and says why.
func TestResultDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("several full runs")
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	multi := func(t *testing.T, timing string, gauges bool) (*Result, *observed) {
		cfg := quickCfg()
		cfg.Apply(TEMPO)
		cfg.Timing = timing
		cfg.Instructions, cfg.Warmup = 8_000, 2_000
		o := &observed{}
		o.observe(&cfg, 2_000, gauges)
		r, err := RunMulti(cfg, mixTraces(t, 20_000))
		if err != nil {
			t.Fatal(err)
		}
		return r, o
	}
	for _, tc := range []struct {
		name       string
		run        func(t *testing.T) (*Result, *observed)
		want       string
		wantCSV    string
		wantGauges string
	}{
		{
			name: "pr-tempo-telemetry",
			run: func(t *testing.T) (*Result, *observed) {
				cfg := quickCfg()
				cfg.Apply(TEMPO)
				o := &observed{}
				o.observe(&cfg, 10_000, true)
				cfg.Telemetry.Tracer = telemetry.NewTracer(1<<12, 8)
				r, err := Run(cfg, buildTrace(t, "pr", 90_000))
				if err != nil {
					t.Fatal(err)
				}
				return r, o
			},
			want:       "bfdfde85eb9e64adf988fc495a47592612d424bbe3e1a6bf27ef09ede0206bd2",
			wantCSV:    "dc1d0064fa09b967d5c1aaf001ac9837106b4d12699d2e9c6736ea4c5fb4dea8",
			wantGauges: "8f149a25d0ed76b8763c576d666e0c4fb1cc1fa53bb4d08853285075f22f9f21",
		},
		{
			name: "smt-heartbeat",
			run: func(t *testing.T) (*Result, *observed) {
				cfg := quickCfg()
				o := &observed{}
				o.observe(&cfg, 10_000, false)
				r, err := RunSMT(cfg, buildTrace(t, "pr", 90_000), buildTrace(t, "xalancbmk", 90_000))
				if err != nil {
					t.Fatal(err)
				}
				return r, o
			},
			want:    "65b52e2fd4684084793f99ca2b0414d43095b785a54a874dea7291df3dd016c0",
			wantCSV: "bdfcaf1717f3dc5f563b8decf7e3a659d4b06b78e607ae16675c789a827ccba0",
		},
		{
			name:       "multi4-tempo-heartbeat",
			run:        func(t *testing.T) (*Result, *observed) { return multi(t, "", true) },
			want:       "106ec8cd3a5a5a7828b30d931f5b594cc909e94c73ee86550319b17f3a3fe432",
			wantCSV:    "881cc4130c3d7fe1ad4c3c8704d057eaf0ade64ca6eae874ea8d2006bfd91cf3",
			wantGauges: "6c060c1d921701c854ca05b32b5154e2594dd3c6e89807dfe4c9c22de75dd54a",
		},
		{
			name:    "multi4-tempo-heartbeat-queued",
			run:     func(t *testing.T) (*Result, *observed) { return multi(t, "queued", false) },
			want:    "c50d3165384d2848a3841fb8f07c7af6fc1feb876c8a0a6bb9123ed1d37a9298",
			wantCSV: "38e91647c28efee9bd5cc246543ce72e7675d01e72926488c2b73c438231549b",
		},
		{
			name: "victima-ipcp",
			run: func(t *testing.T) (*Result, *observed) {
				cfg := quickCfg()
				cfg.Mechanism = "victima"
				cfg.L1DPrefetcher = "ipcp"
				r, err := Run(cfg, buildTrace(t, "mcf", 90_000))
				if err != nil {
					t.Fatal(err)
				}
				return r, nil
			},
			want: "78e718e45885e2f9f7e56c9657c185592a01605c64d474f198c739b27d723b38",
		},
		{
			name: "queued",
			run: func(t *testing.T) (*Result, *observed) {
				cfg := quickCfg()
				cfg.Timing = "queued"
				r, err := Run(cfg, buildTrace(t, "cc", 90_000))
				if err != nil {
					t.Fatal(err)
				}
				return r, nil
			},
			want: "d2b3739ab6617691420bde0d228dd6713a5fa41b7aaeab1888f4a1243e65135b",
		},
		{
			name: "smt-analytic",
			run: func(t *testing.T) (*Result, *observed) {
				r, err := RunSMT(quickCfg(), buildTrace(t, "pr", 90_000), buildTrace(t, "xalancbmk", 90_000))
				if err != nil {
					t.Fatal(err)
				}
				return r, nil
			},
			want: "65b52e2fd4684084793f99ca2b0414d43095b785a54a874dea7291df3dd016c0",
		},
		{
			name: "smt-queued",
			run: func(t *testing.T) (*Result, *observed) {
				cfg := quickCfg()
				cfg.Timing = "queued"
				r, err := RunSMT(cfg, buildTrace(t, "pr", 90_000), buildTrace(t, "xalancbmk", 90_000))
				if err != nil {
					t.Fatal(err)
				}
				return r, nil
			},
			want: "367ac1629d2923a89f883b4da731fdb3225f01a2e902931def191ab7dc820955",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, o := tc.run(t)
			if got := digest([]byte(resultJSON(t, r))); got != tc.want {
				t.Errorf("Result JSON digest %s, pinned %s", got, tc.want)
			}
			if o == nil {
				return
			}
			if got := digest(o.csv.Bytes()); got != tc.wantCSV {
				t.Errorf("heartbeat CSV digest %s, pinned %s", got, tc.wantCSV)
			}
			if o.gauges.Len() == 0 && tc.wantGauges == "" {
				return
			}
			if got := digest(o.gauges.Bytes()); got != tc.wantGauges {
				t.Errorf("gauge JSONL digest %s, pinned %s", got, tc.wantGauges)
			}
		})
	}
}
