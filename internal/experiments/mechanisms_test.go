package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"atcsim/internal/xlat"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden snapshots")

func TestMechanismsShape(t *testing.T) {
	r := NewRunner(testScale())
	rep := Mechanisms(r)
	for _, m := range xlat.Names() {
		if rep.Summary[m] <= 0 {
			t.Errorf("mechanism %q missing from summary: %v", m, rep.Summary)
		}
	}
	// The atp rows are the paper machinery itself, so the atp TEMPO geomean
	// must reproduce Fig. 14's headline number bit-for-bit — same runs, same
	// aggregation, different table.
	f14 := byID(t, r, "fig14")
	if rep.Summary["atp"] != f14.Summary["tempo"] {
		t.Errorf("mechanisms atp geomean %.6f != fig14 tempo geomean %.6f",
			rep.Summary["atp"], f14.Summary["tempo"])
	}
}

// TestMechanismsGolden pins the full mechanisms report byte-for-byte. The
// victima and revelator rows are baselined deliberately: any change to a
// mechanism's timing or stats shows up here as a diff to re-snapshot with
// `go test ./internal/experiments/ -update`.
func TestMechanismsGolden(t *testing.T) {
	checkGolden(t, "mechanisms.golden", Mechanisms(NewRunner(testScale())).String())
}

// checkGolden compares got with testdata/<name>, or rewrites that file when
// the test runs with -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiments/ -update` to create snapshots)", err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Errorf("report diverged from %s.\ngot:\n%s\nwant:\n%s\n(rerun with -update if the change is intended)",
			path, got, want)
	}
}

// TestMechanismsDeterministicAcrossJobs extends the engine's determinism
// guarantee to the mechanism axis: the cross-product sweep must emit
// byte-identical reports at any job count.
func TestMechanismsDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full cross-product twice")
	}
	seq := Mechanisms(NewRunner(testScale())).String()
	par, err := NewRunnerWith(testScale(), Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := Mechanisms(par).String(); got != seq {
		t.Errorf("mechanism sweep differs across job counts:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", seq, got)
	}
}
