package pagetable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cmcp/internal/sim"
)

func TestTableSetLookupClear(t *testing.T) {
	tab := New()
	if _, _, ok := tab.Lookup(42); ok {
		t.Error("empty table must not resolve")
	}
	tab.Set(42, MakePTE(7, Present|Writable))
	e, size, ok := tab.Lookup(42)
	if !ok || size != sim.Size4k || e.PFN() != 7 {
		t.Fatalf("Lookup = %v %v %v", e, size, ok)
	}
	if tab.PresentPages() != 1 || tab.Mappings() != 1 {
		t.Errorf("present=%d mappings=%d", tab.PresentPages(), tab.Mappings())
	}
	old := tab.Clear(42)
	if old.PFN() != 7 {
		t.Errorf("Clear returned %v", old)
	}
	if _, _, ok := tab.Lookup(42); ok {
		t.Error("cleared entry still resolves")
	}
	if tab.PresentPages() != 0 {
		t.Error("present count not decremented")
	}
}

func TestTableSparseAddresses(t *testing.T) {
	tab := New()
	// Entries far apart exercise all radix levels.
	vpns := []sim.PageID{0, 1, 511, 512, 1 << 18, 1<<27 + 5, 1<<35 - 1}
	for i, v := range vpns {
		tab.Set(v, MakePTE(int64(i+1), Present))
	}
	for i, v := range vpns {
		e, _, ok := tab.Lookup(v)
		if !ok || e.PFN() != int64(i+1) {
			t.Errorf("vpn %d: got %v %v", v, e, ok)
		}
	}
	if tab.Mappings() != len(vpns) {
		t.Errorf("mappings = %d", tab.Mappings())
	}
}

func TestTableReplaceDoesNotLeakCount(t *testing.T) {
	tab := New()
	tab.Set(5, MakePTE(1, Present))
	tab.Set(5, MakePTE(2, Present))
	if tab.PresentPages() != 1 {
		t.Errorf("present = %d after replace", tab.PresentPages())
	}
	tab.Set(5, 0) // set non-present
	if tab.PresentPages() != 0 {
		t.Errorf("present = %d after unset", tab.PresentPages())
	}
}

func TestTableUpdate(t *testing.T) {
	tab := New()
	if tab.Update(9, func(e PTE) PTE { return e }) {
		t.Error("Update on absent entry must report false")
	}
	tab.Set(9, MakePTE(3, Present))
	ok := tab.Update(9, func(e PTE) PTE { return e.With(Accessed) })
	if !ok {
		t.Fatal("Update reported absent")
	}
	e, _, _ := tab.Lookup(9)
	if !e.Has(Accessed) {
		t.Error("Update not applied")
	}
}

func TestTableTouch(t *testing.T) {
	tab := New()
	if _, _, ok := tab.Touch(9, true); ok {
		t.Error("Touch on an absent entry must report false")
	}
	tab.Set(9, MakePTE(3, Present))
	e, size, ok := tab.Touch(9, false)
	if !ok || size != sim.Size4k || e.PFN() != 3 || !e.Has(Accessed) || e.Has(Dirty) {
		t.Fatalf("read Touch = %v %v %v, want pfn 3 accessed clean 4k", e, size, ok)
	}
	if e, _, _ = tab.Touch(9, true); !e.Has(Accessed | Dirty) {
		t.Error("write Touch must set accessed and dirty")
	}
	if err := tab.Set2M(1024, MakePTE(512, Writable)); err != nil {
		t.Fatal(err)
	}
	e, size, ok = tab.Touch(1024+7, true)
	if !ok || size != sim.Size2M || e.PFN() != 512 || !e.Has(Accessed|Dirty) {
		t.Fatalf("2M Touch = %v %v %v", e, size, ok)
	}
	if e, _, _ := tab.Lookup(1024); !e.Has(Accessed | Dirty) {
		t.Error("2M Touch must land on the PMD entry")
	}
}

func TestTableSetLargePanics(t *testing.T) {
	tab := New()
	defer func() {
		if recover() == nil {
			t.Error("Set with Large must panic")
		}
	}()
	tab.Set(0, MakePTE(0, Present|Large))
}

func TestTable2M(t *testing.T) {
	tab := New()
	if err := tab.Set2M(5, MakePTE(0, Writable)); err == nil {
		t.Error("unaligned Set2M must fail")
	}
	if err := tab.Set2M(1024, MakePTE(512, Writable)); err != nil {
		t.Fatal(err)
	}
	// Any vpn inside the 2M region resolves to the large entry.
	e, size, ok := tab.Lookup(1024 + 100)
	if !ok || size != sim.Size2M || e.PFN() != 512 {
		t.Fatalf("Lookup in 2M = %v %v %v", e, size, ok)
	}
	if tab.PresentPages() != sim.Span2M || tab.Mappings() != 1 {
		t.Errorf("present=%d mappings=%d", tab.PresentPages(), tab.Mappings())
	}
	if !tab.Update2M(1024+7, func(e PTE) PTE { return e.With(Dirty) }) {
		t.Error("Update2M failed")
	}
	e, _, _ = tab.Lookup(1024)
	if !e.Has(Dirty) {
		t.Error("Update2M not applied")
	}
	old := tab.Clear2M(1024 + 300)
	if old.PFN() != 512 {
		t.Errorf("Clear2M returned %v", old)
	}
	if _, _, ok := tab.Lookup(1024); ok || tab.PresentPages() != 0 {
		t.Error("2M mapping not removed")
	}
}

func TestTableMixedSizesInSame2MBlock(t *testing.T) {
	// The paper: "there are no restrictions for mixing the page sizes
	// (4kB, 64kB, 2MB) within a single address block (2MB)" — for 4k
	// and 64k. A 2M mapping, of course, occupies its whole block.
	tab := New()
	tab.Set(0, MakePTE(1, Present))
	if err := tab.Set64k(16, 32, Writable); err != nil {
		t.Fatal(err)
	}
	e, size, ok := tab.Lookup(0)
	if !ok || size != sim.Size4k || e.PFN() != 1 {
		t.Error("4k entry disturbed by 64k group in same block")
	}
	e, size, ok = tab.Lookup(20)
	if !ok || size != sim.Size64k || e.PFN() != 36 {
		t.Errorf("64k member = %v %v %v", e, size, ok)
	}
}

func TestTable2MConflicts(t *testing.T) {
	tab := New()
	tab.Set(1024, MakePTE(1, Present))
	if err := tab.Set2M(1024, MakePTE(0, 0)); err == nil {
		t.Error("Set2M over live 4k mapping must fail")
	}
	tab.Clear(1024)
	if err := tab.Set2M(1024, MakePTE(0, 0)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("4k Set inside live 2M mapping must panic")
		}
	}()
	tab.Set(1030, MakePTE(9, Present))
}

func TestForEachPresent(t *testing.T) {
	tab := New()
	tab.Set(3, MakePTE(1, Present))
	tab.Set(700, MakePTE(2, Present))
	if err := tab.Set2M(2048, MakePTE(100, 0)); err != nil {
		t.Fatal(err)
	}
	var got []sim.PageID
	var sizes []sim.PageSize
	tab.ForEachPresent(func(vpn sim.PageID, e PTE, size sim.PageSize) {
		got = append(got, vpn)
		sizes = append(sizes, size)
	})
	want := []sim.PageID{3, 700, 2048}
	if len(got) != len(want) {
		t.Fatalf("visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("order: got %v want %v", got, want)
		}
	}
	if sizes[2] != sim.Size2M {
		t.Error("2M entry size wrong")
	}
}

func TestTableCountInvariantProperty(t *testing.T) {
	// Property: after arbitrary set/clear sequences, PresentPages equals
	// the count observed by ForEachPresent.
	f := func(ops []uint16) bool {
		tab := New()
		for _, op := range ops {
			vpn := sim.PageID(op % 2048)
			if op&0x8000 != 0 {
				tab.Clear(vpn)
			} else {
				tab.Set(vpn, MakePTE(int64(op), Present))
			}
		}
		n := 0
		tab.ForEachPresent(func(sim.PageID, PTE, sim.PageSize) { n++ })
		return n == tab.PresentPages() && n == tab.Mappings()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(106))}); err != nil {
		t.Error(err)
	}
}

func TestTableRejectsVPNOutsideSpace(t *testing.T) {
	tab := New()
	tab.Set(0, MakePTE(1, Present))
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s outside the VPN space must panic", name)
			}
		}()
		fn()
	}
	mustPanic("Set(2^36)", func() { tab.Set(VPNSpace, MakePTE(9, Present)) })
	mustPanic("Set(-1)", func() { tab.Set(-1, MakePTE(9, Present)) })
	mustPanic("Set2M(2^36)", func() { _ = tab.Set2M(VPNSpace, MakePTE(0, Writable)) })
	mustPanic("Set64k(2^36)", func() { _ = tab.Set64k(VPNSpace, 0, Writable) })
	if e, _, ok := tab.Lookup(0); !ok || e.PFN() != 1 {
		t.Fatalf("VPN 0 = %v %v after writes outside the space, want pfn 1", e, ok)
	}
	for _, vpn := range []sim.PageID{VPNSpace, -VPNSpace, -1, 1 << 40} {
		if _, _, ok := tab.Lookup(vpn); ok {
			t.Errorf("Lookup(%d) resolved", vpn)
		}
		if _, _, ok := tab.Touch(vpn, true); ok {
			t.Errorf("Touch(%d) resolved", vpn)
		}
		if old := tab.Clear(vpn); old != 0 {
			t.Errorf("Clear(%d) = %v", vpn, old)
		}
		if tab.Update(vpn, func(e PTE) PTE { return e }) || tab.Update2M(vpn, func(e PTE) PTE { return e }) {
			t.Errorf("Update(%d) reported a mapping", vpn)
		}
	}
	if e, _, ok := tab.Lookup(0); !ok || e.Has(Accessed) || tab.PresentPages() != 1 {
		t.Errorf("VPN 0 = %v %v, present %d: disturbed from outside the space", e, ok, tab.PresentPages())
	}
}

// TestTableLeafAllocs pins the layout's allocations: mapping all 512
// pages of a 2 MB region allocates its one leaf, plus the chunk when
// the table is fresh.
func TestTableLeafAllocs(t *testing.T) {
	mapRegion := func(tab *Table, region sim.PageID) {
		for i := sim.PageID(0); i < sim.Span2M; i++ {
			tab.Set(region*sim.Span2M+i, MakePTE(int64(i), Present))
		}
	}
	const runs = 10
	fresh := make([]*Table, runs+1) // AllocsPerRun adds a warm-up run
	for i := range fresh {
		fresh[i] = New()
	}
	n := 0
	if a := testing.AllocsPerRun(runs, func() { mapRegion(fresh[n], 0); n++ }); a != 2 {
		t.Errorf("fresh table: %v allocations per region, want 2 (chunk and leaf)", a)
	}
	tab := New()
	mapRegion(tab, 0)
	next := sim.PageID(1)
	if a := testing.AllocsPerRun(runs, func() { mapRegion(tab, next); next++ }); a != 1 {
		t.Errorf("%v allocations per region, want 1 (the leaf)", a)
	}
}
