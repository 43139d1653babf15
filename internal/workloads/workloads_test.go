package workloads

import (
	"testing"

	"atcsim/internal/trace"
)

const testInsts = 60_000

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 9 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		s, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != n || s.Build == nil || s.Suite == "" {
			t.Errorf("spec %q incomplete: %+v", n, s)
		}
	}
	if _, err := ByName("gcc"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if len(All()) != 9 {
		t.Error("All() wrong length")
	}
}

func TestCategories(t *testing.T) {
	if got := ByCategory(Low); len(got) != 1 || got[0] != "xalancbmk" {
		t.Errorf("Low = %v", got)
	}
	if got := ByCategory(Medium); len(got) != 4 {
		t.Errorf("Medium = %v", got)
	}
	if got := ByCategory(High); len(got) != 4 {
		t.Errorf("High = %v", got)
	}
}

func TestAllBenchmarksGenerate(t *testing.T) {
	for _, s := range All() {
		tr := s.Build(testInsts, 1)
		if tr.Name != s.Name {
			t.Errorf("%s: trace name %q", s.Name, tr.Name)
		}
		st := tr.Stats()
		if st.Total < testInsts*9/10 {
			t.Errorf("%s: only %d instructions", s.Name, st.Total)
		}
		// Sanity: a realistic mix (loads 15–70%, some branches).
		loadFrac := float64(st.Loads) / float64(st.Total)
		if loadFrac < 0.10 || loadFrac > 0.75 {
			t.Errorf("%s: load fraction %.2f out of range", s.Name, loadFrac)
		}
		if st.Branches == 0 {
			t.Errorf("%s: no branches", s.Name)
		}
		if st.Pages < 16 {
			t.Errorf("%s: footprint only %d pages", s.Name, st.Pages)
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range []string{"pr", "mcf", "canneal", "xalancbmk"} {
		s, _ := ByName(name)
		a := s.Build(20_000, 7)
		b := s.Build(20_000, 7)
		if len(a.Insts) != len(b.Insts) {
			t.Fatalf("%s: lengths differ", name)
		}
		for i := range a.Insts {
			if a.Insts[i] != b.Insts[i] {
				t.Fatalf("%s: divergence at inst %d", name, i)
			}
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	s, _ := ByName("canneal")
	a := s.Build(10_000, 1)
	b := s.Build(10_000, 2)
	same := 0
	for i := range a.Insts {
		if a.Insts[i] == b.Insts[i] {
			same++
		}
	}
	if same == len(a.Insts) {
		t.Error("different seeds produced identical traces")
	}
}

func TestFootprintOrderingMatchesCategories(t *testing.T) {
	// The Low benchmark must touch fewer pages per instruction than the
	// High ones — the raw driver of the STLB MPKI categories.
	pages := map[string]int{}
	for _, name := range []string{"xalancbmk", "pr", "cc"} {
		s, _ := ByName(name)
		pages[name] = s.Build(testInsts, 1).Stats().Pages
	}
	if pages["xalancbmk"] >= pages["pr"] {
		t.Errorf("xalancbmk pages %d >= pr pages %d", pages["xalancbmk"], pages["pr"])
	}
	if pages["xalancbmk"] >= pages["cc"] {
		t.Errorf("xalancbmk pages %d >= cc pages %d", pages["xalancbmk"], pages["cc"])
	}
}

func TestGraphCSRWellFormed(t *testing.T) {
	g := BuildGraph(14, 4, 42)
	if g.N != 1<<14 || g.M != 4<<14 {
		t.Fatalf("graph dims N=%d M=%d", g.N, g.M)
	}
	total := 0
	for v := 0; v < g.N; v++ {
		lo, dst := g.Neighbors(v)
		if lo != total {
			t.Fatalf("vertex %d: row starts at %d, want %d", v, lo, total)
		}
		if g.Degree(v) != len(dst) {
			t.Fatalf("vertex %d: degree mismatch", v)
		}
		total += len(dst)
		for k, u := range dst {
			if int(u) >= g.N || u < 0 {
				t.Fatalf("edge %d out of range", lo+k)
			}
		}
	}
	if total != g.M {
		t.Fatalf("edge total %d != M %d", total, g.M)
	}
}

func TestGraphPowerLawSkew(t *testing.T) {
	g := BuildGraph(14, 8, 42)
	// In-degree skew: the hottest 1% of vertices should absorb well over
	// 1% of edges.
	indeg := make([]int, g.N)
	_, edges := allRows(g)
	for _, d := range edges {
		indeg[d]++
	}
	hot := 0
	for v := 0; v < g.N/100; v++ {
		hot += indeg[v] // skew() biases toward low vertex ids
	}
	if frac := float64(hot) / float64(g.M); frac < 0.05 {
		t.Errorf("top-1%% in-degree share = %.3f, want skew", frac)
	}
}

func TestMicroKernels(t *testing.T) {
	st := Stream(5000, 1).Stats()
	if st.Total < 4500 || st.Loads == 0 || st.Stores == 0 {
		t.Errorf("stream stats = %+v", st)
	}
	ch := PointerChase(5000, 1)
	cst := ch.Stats()
	if cst.Loads == 0 {
		t.Error("chase has no loads")
	}
	// Dependent chase: consecutive load addresses far apart (random pages).
	var prev trace.Inst
	far := 0
	loads := 0
	for _, in := range ch.Insts {
		if in.Op != trace.OpLoad {
			continue
		}
		if loads > 0 {
			d := int64(in.Addr) - int64(prev.Addr)
			if d < 0 {
				d = -d
			}
			if d > 4096 {
				far++
			}
		}
		prev = in
		loads++
	}
	if float64(far)/float64(loads) < 0.9 {
		t.Error("pointer chase not page-random")
	}
}
