package trace

import (
	"bytes"
	"reflect"
	"testing"

	"atcsim/internal/mem"
)

// fuzzSeedTrace is a small but representative trace for the fuzz corpus.
func fuzzSeedTrace() *Trace {
	return &Trace{
		Name: "seed",
		Insts: []Inst{
			{IP: 0x400000, Op: OpALU},
			{IP: 0x400004, Op: OpLoad, Addr: 0xdead40, Dep: true},
			{IP: 0x400008, Op: OpStore, Addr: 0xbeef80},
			{IP: 0x40000c, Op: OpBranch, Taken: true},
		},
	}
}

// FuzzTraceRead throws arbitrary bytes at the binary trace decoder: it must
// reject or accept without panicking, never allocate unboundedly, and any
// trace it does accept must survive a Write/Read round trip unchanged.
func FuzzTraceRead(f *testing.F) {
	var buf bytes.Buffer
	if err := fuzzSeedTrace().Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("ATCTRC01"))
	f.Add([]byte("not a trace"))
	f.Add(buf.Bytes()[:buf.Len()-3]) // truncated record
	f.Add(ipTooWideTrace(f))         // ip 1<<32: rejected, not truncated

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatalf("re-encoding accepted trace: %v", err)
		}
		tr2, err := Read(&out)
		if err != nil {
			t.Fatalf("re-decoding re-encoded trace: %v", err)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("round trip diverged:\n first: %+v\nsecond: %+v", tr, tr2)
		}
	})
}

// FuzzTraceRoundTrip drives the encoder from arbitrary instruction streams
// (the dual direction: every trace we can build must serialize and
// deserialize exactly).
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add("mix", []byte{0, 1, 2, 3, 0xFF, 0x80})
	f.Add("", []byte{})
	f.Fuzz(func(t *testing.T, name string, raw []byte) {
		if len(name) > 1<<10 {
			name = name[:1<<10]
		}
		tr := &Trace{Name: name}
		for i, b := range raw {
			tr.Insts = append(tr.Insts, Inst{
				IP:    uint32(0x400000 + 4*i),
				Op:    OpClass(b % 4),
				Addr:  mem.Addr(b) << 6,
				Taken: b&0x10 != 0,
				Dep:   b&0x20 != 0,
			})
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		tr2, err := Read(&buf)
		if err != nil {
			t.Fatalf("decoding freshly encoded trace: %v", err)
		}
		if tr.Name != tr2.Name || len(tr.Insts) != len(tr2.Insts) {
			t.Fatalf("round trip diverged")
		}
		// Compare elementwise: a nil and an empty slice are both "no insts".
		for i := range tr.Insts {
			if !reflect.DeepEqual(tr.Insts[i], tr2.Insts[i]) {
				t.Fatalf("inst %d diverged: %+v vs %+v", i, tr.Insts[i], tr2.Insts[i])
			}
		}
	})
}
