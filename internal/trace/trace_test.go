package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"unsafe"

	"atcsim/internal/mem"
)

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder("x", 0); err == nil {
		t.Error("zero limit accepted")
	}
	if _, err := NewBuilder("x", -5); err == nil {
		t.Error("negative limit accepted")
	}
}

func TestBuilderEmitsAndCaps(t *testing.T) {
	b := MustNewBuilder("t", 5)
	b.Load(1, 0x1000)
	b.Store(2, 0x2000)
	b.Branch(3, true)
	b.ALU(4, 10) // only 2 fit
	if !b.Full() || b.Len() != 5 {
		t.Fatalf("len = %d full = %v", b.Len(), b.Full())
	}
	// Emissions after full are dropped silently.
	b.Load(1, 0x3000)
	if b.Len() != 5 {
		t.Error("emitted past the limit")
	}
	tr := b.Build()
	if tr.Name != "t" || len(tr.Insts) != 5 {
		t.Fatalf("trace = %s/%d", tr.Name, len(tr.Insts))
	}
	if tr.Insts[0].Op != OpLoad || tr.Insts[0].Addr != 0x1000 {
		t.Error("first inst wrong")
	}
	if tr.Insts[2].Op != OpBranch || !tr.Insts[2].Taken {
		t.Error("branch inst wrong")
	}
}

func TestDistinctSitesDistinctIPs(t *testing.T) {
	b := MustNewBuilder("t", 10)
	b.Load(1, 0x1000)
	b.Load(2, 0x1000)
	b.Load(1, 0x2000)
	tr := b.Build()
	if tr.Insts[0].IP == tr.Insts[1].IP {
		t.Error("different sites share an IP")
	}
	if tr.Insts[0].IP != tr.Insts[2].IP {
		t.Error("same site has different IPs")
	}
}

func TestTraceStats(t *testing.T) {
	b := MustNewBuilder("t", 10)
	b.Load(1, 0)                  // page 0
	b.Load(1, mem.PageSize)       // page 1
	b.Store(2, mem.PageSize+1024) // page 1 again
	b.Branch(3, false)
	b.ALU(4, 2)
	st := b.Build().Stats()
	if st.Total != 6 || st.Loads != 2 || st.Stores != 1 || st.Branches != 1 || st.ALU != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.Pages != 2 {
		t.Errorf("pages = %d, want 2", st.Pages)
	}
}

func TestOpClassString(t *testing.T) {
	names := map[OpClass]string{OpALU: "alu", OpLoad: "load", OpStore: "store", OpBranch: "branch"}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("OpClass(%d) = %q", op, op.String())
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	b := MustNewBuilder("roundtrip", 100)
	b.Load(1, 0x1000)
	b.LoadDep(2, 0x2000)
	b.Store(3, 0x3000)
	b.Branch(4, true)
	b.Branch(5, false)
	b.ALU(6, 3)
	orig := b.Build()

	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || len(got.Insts) != len(orig.Insts) {
		t.Fatalf("header mismatch: %q/%d", got.Name, len(got.Insts))
	}
	for i := range orig.Insts {
		if got.Insts[i] != orig.Insts[i] {
			t.Fatalf("inst %d: %+v != %+v", i, got.Insts[i], orig.Insts[i])
		}
	}
}

func TestTraceReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Valid header, truncated records.
	b := MustNewBuilder("x", 10)
	b.ALU(1, 5)
	var buf bytes.Buffer
	b.Build().Write(&buf)
	raw := buf.Bytes()
	if _, err := Read(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Error("truncated trace accepted")
	}
	// An ip at or above 4 GiB is an error naming its record, never a
	// truncated IP.
	if _, err := Read(bytes.NewReader(ipTooWideTrace(t))); err == nil || !strings.Contains(err.Error(), "record 1:") {
		t.Errorf("ip 1<<32: err = %v, want an error naming record 1", err)
	}
}

// TestInstIs16Bytes pins the in-memory instruction size: a trace costs
// 16 B per instruction, the largest memory a single-core run holds.
func TestInstIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 16 {
		t.Fatalf("Sizeof(Inst) = %d, want 16", got)
	}
}

// ipTooWideTrace encodes a two-record trace whose second record's ip is
// 1<<32, one past what Inst's 32-bit IP can hold.
func ipTooWideTrace(t testing.TB) []byte {
	tr := &Trace{Name: "wide", Insts: []Inst{{IP: 0x400000, Op: OpALU}, {IP: 0x400008, Op: OpALU}}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint64(raw[len(raw)-recordBytes:], 1<<32)
	return raw
}
