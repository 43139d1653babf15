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
			want:       "d733666a6d17836e69ba4a5b78beb6e26ed1c169740587dd20f4439df7603d1d",
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
			want:    "844f972b964ab1331b00b472efcf3a3eddf2f28d1a72667b553cf8b972b1e596",
			wantCSV: "a2d8470d3f9166a1bc794eaf27c3819413e5987a136a262b8e8ab652311ebafe",
		},
		{
			name:       "multi4-tempo-heartbeat",
			run:        func(t *testing.T) (*Result, *observed) { return multi(t, "", true) },
			want:       "4ca6c87b4c86256c0cedb15e3ff9373181cc181554cd450bce04c8c73ec354f4",
			wantCSV:    "f59559d68a875c666961ec3f320da1a1a85340645a417964ff6cd464a5acd655",
			wantGauges: "d5f629260685851d0a78a4f6848e531fb8d207c85bcd4cb52d403b58b6319685",
		},
		{
			name:    "multi4-tempo-heartbeat-queued",
			run:     func(t *testing.T) (*Result, *observed) { return multi(t, "queued", false) },
			want:    "3af4653e9e5174625759a47fb094e7f2a589b5af69fffc3f60a485d53c31f1b5",
			wantCSV: "48846de712406500f03e64f1aec714615e2809d513250dc9809f3b2d1f59218b",
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
			want: "8d8a330c161d4b37643104bef99dfeee7320ed911a3d96b83ff23fc9b8988956",
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
			want: "ff1e8a99d98d45ced07bfe857a85652d6eed06af12112f49473e42bd0110687e",
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
			want: "844f972b964ab1331b00b472efcf3a3eddf2f28d1a72667b553cf8b972b1e596",
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
			want: "1593bf2c8b21aafc6a16f7d93427d0cac1233b3ee6336d72435ec13a471fbf6d",
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
