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

// progressTotal matches the sim_instructions_total series of a JSONL
// snapshot line. The gauge pin leaves it out;
// TestTelemetryDoesNotPerturbTiming checks its value exactly.
var progressTotal = regexp.MustCompile(`"sim_instructions_total":[^,}]*,`)

// observe ticks every `every` measured instructions into a heartbeat
// streaming CSV and, when gauges is set, live sim_* gauges snapshotted into
// JSONL.
func (o *observed) observe(cfg *Config, every int, gauges bool) {
	heartbeat := HeartbeatTick(telemetry.NewHeartbeat(&o.csv, telemetry.FormatCSV))
	cfg.TickEvery, cfg.OnTick = every, heartbeat
	if gauges {
		reg := metrics.New()
		g := NewLiveGauges(reg)
		seq := 0
		cfg.OnTick = func(r *Result) {
			heartbeat(r)
			g.Publish(r)
			var line bytes.Buffer
			reg.WriteJSONLSnapshot(&line, seq)
			o.gauges.Write(progressTotal.ReplaceAll(line.Bytes(), nil))
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
				cfg.Tracer = telemetry.NewTracer(1<<12, 8)
				r, err := Run(cfg, buildTrace(t, "pr", 90_000))
				if err != nil {
					t.Fatal(err)
				}
				return r, o
			},
			want:       "f734e86be43c78f2699a0c8f09c40fdea615956c377b7ca2a0765d45afeed47d",
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
			want:    "eb41c972542d85447a98d97c1888af5bcf9de88417844a490a65ea14aa1d9700",
			wantCSV: "3d3b9ee3d44450d4f8e0f4e163cfe011a524d7b17bdc0f5294f93179e51b84f6",
		},
		{
			name:       "multi4-tempo-heartbeat",
			run:        func(t *testing.T) (*Result, *observed) { return multi(t, "", true) },
			want:       "cf73703eb3bac3d85c351672f4996be68fc908ff6abe645fd8bb1696ba0599c0",
			wantCSV:    "d3647ace20fdd65961d4cb8ea7fcbf7940ae1c63b4506021645496841f22d12b",
			wantGauges: "b27b3a59ad474f661d106c509d5147c87c41d72777395f9c7c17403c53c5c903",
		},
		{
			name:    "multi4-tempo-heartbeat-queued",
			run:     func(t *testing.T) (*Result, *observed) { return multi(t, "queued", false) },
			want:    "6868e2c8ec12abf72108e4709e799dbd6ce392d64a320d8196d0ca668697028b",
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
			want: "1347c0a38900be4052d6e57c5b6859766427ca2945bf76a248f8c549cdea953d",
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
			want: "d94a06f22474d0cfe94111cad757466f31a3144ff4adb492f702945ac01f34a7",
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
			want: "eb41c972542d85447a98d97c1888af5bcf9de88417844a490a65ea14aa1d9700",
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
			want: "9c064fc0c877dc4ac17719cbfba9e93ba918266b64f0f2f499bd7419f744e16c",
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
