package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"atcsim/internal/trace"
)

// TestSynthesisDigests pins the exact output of graph and trace synthesis.
// Every simulation result depends on these bytes, so any rewrite of the
// graph builder, the trace builder or a kernel must leave them unchanged.
func TestSynthesisDigests(t *testing.T) {
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s: digest %s, want %s", what, got, want)
		}
	}

	g := BuildGraph(20, 8, 0xA11CE)
	check("BuildGraph(20, 8, 0xA11CE).Offsets", digestInt32s(g.Offsets),
		"c11333c24ccac0e4812e53c01b3684996bdd72b747427793f4027b26b9e128c1")
	check("BuildGraph(20, 8, 0xA11CE).Edges", digestInt32s(g.Edges),
		"f830bc907e545aaafc624234c3a22176df87b2de14123caa417d232630d48f14")

	want := map[string]string{
		"xalancbmk": "1e490137db54229c931278ac8811153363b755d1e4455702b2d1472f3a7c4291",
		"tc":        "64a6993de578026ffd82d51a6eafc26efc7224cabb18f3afa52a1478d07fd1d5",
		"canneal":   "f015d20b2c9f7916a17015efe2136a48582237cdd0614f3206d5188a6368e903",
		"mis":       "84d7cd496c13927884c1958ff4f179f67b5eade33f0492d64a4454fe9e017c2d",
		"mcf":       "15d7eabe6cfaa22f558c94cadfcd1a57f9839f3abf62d6359dc297c188c09401",
		"bf":        "01ac1b86f5f56fb8539bf00b1f83c6c95f7612723497b6d25ed0eb16a87e83bc",
		"radii":     "f57b9ef1e636f4916c56decf82a1e1f60ae5bb1462ff3ec082f2634e63732a9f",
		"cc":        "2c04253b6e40c66f5dc05ee9887f53b1be0ff55122b192d50fffec6292e2dac0",
		"pr":        "886daa6b4d44e45806748907489e945fa0db8f1302b4e1675bcef82b75782dbe",
	}
	for _, s := range All() {
		check(s.Name+".Build(50000, 1)", digestTrace(s.Build(50_000, 1)), want[s.Name])
	}
	check("Stream(50000, 1)", digestTrace(Stream(50_000, 1)),
		"2ad5bd9ff8f7ccfb81d0e36c7d2ab496cd0d18ff55c0102a68427f442b61019f")
	check("PointerChase(50000, 1)", digestTrace(PointerChase(50_000, 1)),
		"7849f5690c3494fd9b00838a70d0d48c1eb6e9db484d0f8060cf49963cd791fb")
}

func digestInt32s(v []int32) string {
	h := sha256.New()
	var b [4]byte
	for _, x := range v {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
	return sum(h)
}

// digestTrace hashes the trace name and every field of every instruction.
func digestTrace(tr *trace.Trace) string {
	h := sha256.New()
	h.Write([]byte(tr.Name))
	var b [19]byte
	for _, in := range tr.Insts {
		binary.LittleEndian.PutUint64(b[0:], uint64(in.IP))
		binary.LittleEndian.PutUint64(b[8:], uint64(in.Addr))
		b[16] = byte(in.Op)
		b[17] = boolByte(in.Taken)
		b[18] = boolByte(in.Dep)
		h.Write(b[:])
	}
	return sum(h)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// TestBuildGraphMatchesEdgeListReference checks the two-pass builder
// against the straightforward construction it replaced — buffer the edge
// list, then counting-sort it into CSR — on small and degenerate shapes.
func TestBuildGraphMatchesEdgeListReference(t *testing.T) {
	for _, c := range []struct {
		logN, degree int
		seed         int64
	}{{14, 4, 42}, {14, 8, 1}, {3, 2, 7}, {0, 3, 5}} {
		got := BuildGraph(c.logN, c.degree, c.seed)
		want := edgeListGraph(c.logN, c.degree, c.seed)
		if digestInt32s(got.Offsets) != digestInt32s(want.Offsets) ||
			digestInt32s(got.Edges) != digestInt32s(want.Edges) {
			t.Errorf("BuildGraph(%d, %d, %d) differs from the edge-list reference", c.logN, c.degree, c.seed)
		}
	}
}

func edgeListGraph(logN, degree int, seed int64) *Graph {
	n := 1 << logN
	m := n * degree
	r := newRNG(seed)
	src := make([]int32, m)
	dst := make([]int32, m)
	offsets := make([]int32, n+1)
	for i := 0; i < m; i++ {
		s, d := r.intn(n), r.skewed(n)
		if s == d {
			d = (d + 1) % n
		}
		src[i], dst[i] = int32(s), int32(d)
		offsets[s+1]++
	}
	for v := 1; v <= n; v++ {
		offsets[v] += offsets[v-1]
	}
	cursor := append([]int32(nil), offsets[:n]...)
	edges := make([]int32, m)
	for i := range src {
		edges[cursor[src[i]]] = dst[i]
		cursor[src[i]]++
	}
	return &Graph{N: n, M: m, Offsets: offsets, Edges: edges}
}
