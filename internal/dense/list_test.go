package dense

import (
	"testing"

	"cmcp/internal/sim"
)

// TestListMatchesReference drives List and a simple slice model through
// an interleaved op sequence and checks order and membership agree.
func TestListMatchesReference(t *testing.T) {
	l := NewList(4)
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
