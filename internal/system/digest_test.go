package system

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"atcsim/internal/telemetry"
)

// TestResultDigestsPinned pins the Result JSON of single-core and SMT runs
// (and the heartbeat CSV of the telemetry run) to SHA-256 digests, so a
// scheduler change that claims to keep one-unit machines step-for-step
// identical is checked byte for byte. No report golden covers SMT. A
// deliberate model change updates the digests and says why.
func TestResultDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("several full runs")
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, tc := range []struct {
		name    string
		run     func(t *testing.T) (*Result, []byte)
		want    string
		wantCSV string
	}{
		{
			name: "pr-tempo-telemetry",
			run: func(t *testing.T) (*Result, []byte) {
				cfg := quickCfg()
				cfg.Apply(TEMPO)
				var csv bytes.Buffer
				cfg.Telemetry = &telemetry.Hub{
					Tracer:    telemetry.NewTracer(1<<12, 8),
					Heartbeat: telemetry.NewHeartbeat(&csv, telemetry.FormatCSV, 10_000),
					Progress:  &telemetry.Progress{},
				}
				r, err := Run(cfg, buildTrace(t, "pr", 90_000))
				if err != nil {
					t.Fatal(err)
				}
				return r, csv.Bytes()
			},
			want:    "d733666a6d17836e69ba4a5b78beb6e26ed1c169740587dd20f4439df7603d1d",
			wantCSV: "dc1d0064fa09b967d5c1aaf001ac9837106b4d12699d2e9c6736ea4c5fb4dea8",
		},
		{
			name: "victima-ipcp",
			run: func(t *testing.T) (*Result, []byte) {
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
			run: func(t *testing.T) (*Result, []byte) {
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
			run: func(t *testing.T) (*Result, []byte) {
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
			run: func(t *testing.T) (*Result, []byte) {
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
			r, csv := tc.run(t)
			if got := digest([]byte(resultJSON(t, r))); got != tc.want {
				t.Errorf("Result JSON digest %s, pinned %s", got, tc.want)
			}
			if got := digest(csv); csv != nil && got != tc.wantCSV {
				t.Errorf("heartbeat CSV digest %s, pinned %s", got, tc.wantCSV)
			}
		})
	}
}
