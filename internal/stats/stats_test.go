package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"atcsim/internal/mem"
)

func TestClassCounters(t *testing.T) {
	var cc ClassCounters
	cc.Record(mem.ClassReplay, true)
	cc.Record(mem.ClassReplay, false)
	cc.Record(mem.ClassTransLeaf, true)
	if cc.Access[mem.ClassReplay] != 2 || cc.Miss[mem.ClassReplay] != 1 {
		t.Errorf("replay counters = %d/%d", cc.Access[mem.ClassReplay], cc.Miss[mem.ClassReplay])
	}
	if cc.TotalAccess() != 3 || cc.TotalMiss() != 2 {
		t.Errorf("totals = %d/%d", cc.TotalAccess(), cc.TotalMiss())
	}
}

func TestMPKI(t *testing.T) {
	if got := MPKI(500, 1_000_000); got != 0.5 {
		t.Errorf("MPKI = %v, want 0.5", got)
	}
	if got := MPKI(5, 0); got != 0 {
		t.Errorf("MPKI with zero instructions = %v, want 0", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10, 50, 100)
	for _, v := range []uint64{0, 5, 10, 11, 50, 51, 100, 1000} {
		h.Add(v)
	}
	labels, counts := h.Buckets()
	if len(labels) != 4 || len(counts) != 4 {
		t.Fatalf("bucket count = %d", len(labels))
	}
	// 0,5,10 → [0,10]; 11,50 → [11,50]; 51,100 → [51,100]; 1000 → overflow
	want := []uint64{3, 2, 2, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %s = %d, want %d", labels[i], counts[i], w)
		}
	}
	if h.Total() != 8 || h.Max() != 1000 {
		t.Errorf("total=%d max=%d", h.Total(), h.Max())
	}
	if got := h.FractionAtMost(50); got != 5.0/8 {
		t.Errorf("FractionAtMost(50) = %v", got)
	}
	if got := h.Mean(); math.Abs(got-float64(0+5+10+11+50+51+100+1000)/8) > 1e-9 {
		t.Errorf("Mean = %v", got)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, bounds := range [][]uint64{{}, {5, 5}, {10, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestHistogramInvariants(t *testing.T) {
	f := func(samples []uint16) bool {
		h := NewHistogram(RecallBounds...)
		var sum, max uint64
		for _, s := range samples {
			h.Add(uint64(s))
			sum += uint64(s)
			if uint64(s) > max {
				max = uint64(s)
			}
		}
		_, counts := h.Buckets()
		var tot uint64
		for _, c := range counts {
			tot += c
		}
		return tot == uint64(len(samples)) && h.Sum() == sum && h.Max() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServiceDist(t *testing.T) {
	var s ServiceDist
	s.Record(mem.LvlL1D)
	s.Record(mem.LvlL2)
	s.Record(mem.LvlL2)
	s.Record(mem.LvlDRAM)
	if s.Total() != 4 {
		t.Fatalf("total = %d", s.Total())
	}
	if got := s.Fraction(mem.LvlL2); got != 0.5 {
		t.Errorf("L2 fraction = %v", got)
	}
	s.Reset()
	if s.Total() != 0 {
		t.Error("reset failed")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	tb.AddRowf("gamma", 42)
	out := tb.String()
	for _, want := range []string{"name", "alpha", "2.500", "42", "-----"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Errorf("expected 5 lines, got %d", len(lines))
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-9 {
		t.Errorf("GeoMean = %v, want 2", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v", got)
	}
	if got := GeoMean([]float64{-1, 0}); got != 0 {
		t.Errorf("GeoMean(nonpositive) = %v", got)
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{1, 1}); got != 1 {
		t.Errorf("HarmonicMean = %v", got)
	}
	if got := HarmonicMean([]float64{2, 2}); got != 2 {
		t.Errorf("HarmonicMean = %v", got)
	}
	// HM of 1 and 3 is 1.5.
	if got := HarmonicMean([]float64{1, 3}); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("HarmonicMean(1,3) = %v", got)
	}
	if got := HarmonicMean(nil); got != 0 {
		t.Errorf("HarmonicMean(nil) = %v", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 2) != 0.5 || Ratio(1, 0) != 0 {
		t.Error("Ratio wrong")
	}
}

func TestHistogramJSON(t *testing.T) {
	h := NewHistogram(10, 50)
	h.Add(5)
	h.Add(100)
	out, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Total   uint64            `json:"total"`
		Max     uint64            `json:"max"`
		Buckets map[string]uint64 `json:"buckets"`
	}
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Total != 2 || decoded.Max != 100 {
		t.Errorf("decoded = %+v", decoded)
	}
	if decoded.Buckets["0-10"] != 1 || decoded.Buckets[">50"] != 1 {
		t.Errorf("buckets = %v", decoded.Buckets)
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram(10, 50, 200)
	for _, v := range []uint64{3, 11, 49, 50, 51, 1000, 0} {
		h.Add(v)
	}
	out, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if back.Total() != h.Total() || back.Sum() != h.Sum() || back.Max() != h.Max() {
		t.Errorf("aggregates: got (%d,%d,%d), want (%d,%d,%d)",
			back.Total(), back.Sum(), back.Max(), h.Total(), h.Sum(), h.Max())
	}
	if back.Mean() != h.Mean() {
		t.Errorf("mean %v != %v", back.Mean(), h.Mean())
	}
	for _, b := range []uint64{10, 50, 200} {
		if back.FractionAtMost(b) != h.FractionAtMost(b) {
			t.Errorf("FractionAtMost(%d): %v != %v", b, back.FractionAtMost(b), h.FractionAtMost(b))
		}
	}
	// The round-tripped histogram must re-serialize identically — the
	// experiment disk cache depends on lossless decode.
	out2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(out2) {
		t.Errorf("re-marshal differs:\n%s\n%s", out, out2)
	}
}

func TestHistogramJSONRejectsMalformed(t *testing.T) {
	var h Histogram
	for _, bad := range []string{
		`{"bounds":[],"counts":[]}`,
		`{"bounds":[10],"counts":[1,2,3]}`,
		`not json`,
	} {
		if err := json.Unmarshal([]byte(bad), &h); err == nil {
			t.Errorf("malformed %q accepted", bad)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("plain", "1")
	tb.AddRow("with,comma", `has "quote"`)
	out := tb.CSV()
	want := "name,value\nplain,1\n\"with,comma\",\"has \"\"quote\"\"\"\n"
	if out != want {
		t.Errorf("CSV = %q, want %q", out, want)
	}
}
