package cache

import (
	"reflect"
	"testing"

	"atcsim/internal/mem"
)

func TestRingWraparound(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		ops      int // pushes, each followed by a pop after `lag` more pushes
		lag      int
	}{
		{"cap1-drain-each", 1, 10, 0},
		{"cap4-half-full", 4, 100, 2},
		{"cap8-near-full", 8, 1000, 7},
		{"cap3-wrap-many", 3, 333, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRing(tc.capacity)
			next := uint64(1) // next seq to push
			exp := uint64(1)  // next seq expected at the head
			for i := 0; i < tc.ops; i++ {
				e := r.push()
				if e == nil {
					t.Fatalf("push %d rejected at occupancy %d/%d", i, r.len(), r.cap())
				}
				e.seq = next
				next++
				if r.len() > tc.lag {
					if got := r.at(0).seq; got != exp {
						t.Fatalf("head seq = %d, want %d (FIFO broken)", got, exp)
					}
					r.pop()
					exp++
				}
				if err := r.check("ring"); err != nil {
					t.Fatal(err)
				}
			}
			for !r.empty() {
				if got := r.at(0).seq; got != exp {
					t.Fatalf("drain head seq = %d, want %d", got, exp)
				}
				r.pop()
				exp++
			}
			if exp != next {
				t.Fatalf("popped up to seq %d, pushed up to %d: entries lost", exp-1, next-1)
			}
		})
	}
}

func TestRingOverflow(t *testing.T) {
	r := newRing(2)
	if r.push() == nil || r.push() == nil {
		t.Fatal("push rejected below capacity")
	}
	if !r.full() {
		t.Fatal("ring not full at capacity")
	}
	if r.push() != nil {
		t.Fatal("push accepted beyond capacity")
	}
	if err := r.check("ring"); err != nil {
		t.Fatal(err)
	}
	r.pop()
	if r.push() == nil {
		t.Fatal("push rejected after pop freed a slot")
	}
}

func TestRingZeroCapacityClamped(t *testing.T) {
	r := newRing(0)
	if r.cap() != 1 {
		t.Fatalf("cap = %d, want clamp to 1", r.cap())
	}
}

func TestRingFind(t *testing.T) {
	r := newRing(4)
	e := r.push()
	e.req = mem.Request{Addr: 0x40 << 1, Kind: mem.Load} // line 2
	e.line = 2
	e = r.push()
	e.line = 7 // prefetch-style entry: line payload only
	if !r.find(2) || !r.find(7) {
		t.Error("resident lines not found")
	}
	if r.find(3) {
		t.Error("absent line found")
	}
	r.pop()
	if r.find(2) {
		t.Error("popped line still found")
	}
}

func TestRingConservationCheck(t *testing.T) {
	r := newRing(4)
	r.push()
	r.push()
	r.pops++ // corrupt the books
	if err := r.check("ring"); err == nil {
		t.Error("conservation violation not detected")
	}
}

func TestDefaultQueueConfig(t *testing.T) {
	for _, lvl := range []mem.Level{mem.LvlL1D, mem.LvlL2, mem.LvlLLC} {
		qc := DefaultQueueConfig(lvl)
		if qc.RQ <= 0 || qc.WQ <= 0 || qc.PQ <= 0 || qc.VAPQ <= 0 ||
			qc.MaxRead <= 0 || qc.MaxWrite <= 0 {
			t.Errorf("%v: incomplete defaults %+v", lvl, qc)
		}
	}
	if l1, llc := DefaultQueueConfig(mem.LvlL1D), DefaultQueueConfig(mem.LvlLLC); l1.RQ >= llc.RQ {
		t.Errorf("L1 RQ %d not smaller than LLC RQ %d", l1.RQ, llc.RQ)
	}
}

func TestQueueConfigWithDefaults(t *testing.T) {
	qc := QueueConfig{RQ: 2}.withDefaults()
	if qc.RQ != 2 {
		t.Errorf("explicit RQ overridden: %d", qc.RQ)
	}
	if qc.WQ <= 0 || qc.PQ <= 0 || qc.VAPQ <= 0 || qc.MaxRead <= 0 || qc.MaxWrite <= 0 {
		t.Errorf("unset fields not defaulted: %+v", qc)
	}
}

// TestQueueStatsAddCoversEveryField gives every counter a distinct value
// and checks Add sums each one, so a new field cannot be left out.
func TestQueueStatsAddCoversEveryField(t *testing.T) {
	var o QueueStats
	v := reflect.ValueOf(&o).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	var sum QueueStats
	sum.Add(o)
	sum.Add(o)
	got := reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		if want := 2 * uint64(i+1); got.Field(i).Uint() != want {
			t.Errorf("%s = %d after two Adds, want %d", v.Type().Field(i).Name, got.Field(i).Uint(), want)
		}
	}
}
