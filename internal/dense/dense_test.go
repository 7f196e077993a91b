package dense

import (
	"testing"

	"cmcp/internal/sim"
)

func TestScratchRecycleZeroesAndReuses(t *testing.T) {
	sc := &Scratch{}
	a := sc.I32(100)
	for i := range a {
		a[i] = int32(i) + 1
	}
	base := &a[0]
	sc.Recycle()
	b := sc.I32(50)
	if &b[0] != base {
		t.Fatalf("recycled slab not reused")
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("recycled slab not zeroed at %d: %d", i, v)
		}
	}
	// The tail beyond the requested length must be zero too, so a later
	// larger request sees clean memory.
	full := b[:cap(b)]
	for i, v := range full {
		if v != 0 {
			t.Fatalf("slab capacity tail dirty at %d: %d", i, v)
		}
	}
}

func TestScratchNilFallsBackToMake(t *testing.T) {
	var sc *Scratch
	if got := len(sc.U8(7)); got != 7 {
		t.Fatalf("nil scratch U8 len = %d", got)
	}
	if got := len(sc.Cycles(3)); got != 3 {
		t.Fatalf("nil scratch Cycles len = %d", got)
	}
	sc.Recycle() // must not panic
}

func TestIndexBasics(t *testing.T) {
	x := NewIndex(nil, 4)
	if x.Get(0) != -1 || x.Has(2) {
		t.Fatal("empty index not empty")
	}
	x.Set(0, 0) // value 0 must be distinguishable from absent
	x.Set(2, 7)
	x.Set(100, 3) // beyond hint: grows
	if x.Get(0) != 0 || x.Get(2) != 7 || x.Get(100) != 3 {
		t.Fatalf("got %d %d %d", x.Get(0), x.Get(2), x.Get(100))
	}
	if x.Get(-1) != -1 || x.Get(1000) != -1 {
		t.Fatal("out-of-range reads must be absent")
	}
	if !x.Delete(2) || x.Delete(2) || x.Has(2) {
		t.Fatal("delete misbehaved")
	}
	var pages []sim.PageID
	var vals []int32
	x.Range(func(p sim.PageID, v int32) bool {
		pages = append(pages, p)
		vals = append(vals, v)
		return true
	})
	if len(pages) != 2 || pages[0] != 0 || pages[1] != 100 || vals[0] != 0 || vals[1] != 3 {
		t.Fatalf("range got %v %v", pages, vals)
	}
}

// TestListMatchesReference drives List and a simple slice model through
// an interleaved op sequence and checks order and membership agree.
func TestListMatchesReference(t *testing.T) {
	l := NewList(nil, 4)
	var ref []sim.PageID
	refHas := func(p sim.PageID) bool {
		for _, q := range ref {
			if q == p {
				return true
			}
		}
		return false
	}
	refRemove := func(p sim.PageID) {
		for i, q := range ref {
			if q == p {
				ref = append(ref[:i], ref[i+1:]...)
				return
			}
		}
	}
	rng := sim.NewRNG(7)
	for step := 0; step < 5000; step++ {
		p := sim.PageID(rng.Intn(64))
		switch rng.Intn(4) {
		case 0:
			if !l.Has(p) {
				l.PushTail(p)
				ref = append(ref, p)
			}
		case 1:
			got := l.Remove(p)
			want := refHas(p)
			if got != want {
				t.Fatalf("step %d: Remove(%d) = %v want %v", step, p, got, want)
			}
			refRemove(p)
		case 2:
			got := l.MoveToTail(p)
			if got != refHas(p) {
				t.Fatalf("step %d: MoveToTail(%d) = %v", step, p, got)
			}
			if got {
				refRemove(p)
				ref = append(ref, p)
			}
		case 3:
			got, ok := l.PopHead()
			if ok != (len(ref) > 0) {
				t.Fatalf("step %d: PopHead ok = %v", step, ok)
			}
			if ok {
				if got != ref[0] {
					t.Fatalf("step %d: PopHead = %d want %d", step, got, ref[0])
				}
				ref = ref[1:]
			}
		}
		if l.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d want %d", step, l.Len(), len(ref))
		}
	}
	var order []sim.PageID
	l.ForEachFromHead(func(p sim.PageID) bool {
		order = append(order, p)
		return true
	})
	if len(order) != len(ref) {
		t.Fatalf("final order len %d want %d", len(order), len(ref))
	}
	for i := range order {
		if order[i] != ref[i] {
			t.Fatalf("final order[%d] = %d want %d", i, order[i], ref[i])
		}
	}
}
