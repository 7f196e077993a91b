package dense

import (
	"testing"

	"cmcp/internal/sim"
)

func TestIndexBasics(t *testing.T) {
	x := NewIndex(4)
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
