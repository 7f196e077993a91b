package pspt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cmcp/internal/pagetable"
	"cmcp/internal/sim"
)

func TestCoreSet(t *testing.T) {
	var s CoreSet
	if s.Count() != 0 {
		t.Error("empty set")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(127)
	if s.Count() != 4 {
		t.Errorf("Count = %d", s.Count())
	}
	if !s.Has(63) || !s.Has(64) || s.Has(1) {
		t.Error("Has wrong")
	}
	got := s.Cores(nil)
	want := []sim.CoreID{0, 63, 64, 127}
	if len(got) != 4 {
		t.Fatalf("Cores = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Cores = %v, want %v", got, want)
		}
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 3 {
		t.Error("Remove failed")
	}
}

func TestCoreSetAddRemoveProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		var s CoreSet
		ref := make(map[sim.CoreID]bool)
		for _, id := range ids {
			c := sim.CoreID(id % MaxCores)
			if ref[c] {
				s.Remove(c)
				delete(ref, c)
			} else {
				s.Add(c)
				ref[c] = true
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for c := range ref {
			if !s.Has(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(110))}); err != nil {
		t.Error(err)
	}
}

func TestNewBounds(t *testing.T) {
	for _, n := range []int{0, -1, MaxCores + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) must panic", n)
				}
			}()
			New(n, sim.Size4k, 0)
		}()
	}
	if New(60, sim.Size4k, 0).Cores() != 60 {
		t.Error("Cores()")
	}
}

func TestMapAndCoreMapCount(t *testing.T) {
	p := New(4, sim.Size4k, 0)
	first, err := p.Map(0, 100, 7, pagetable.Writable)
	if err != nil || !first {
		t.Fatalf("first Map: %v first=%v", err, first)
	}
	if p.CoreMapCount(100) != 1 {
		t.Errorf("count = %d", p.CoreMapCount(100))
	}
	// Second core maps the same page.
	first2, err := p.Map(2, 100, 7, pagetable.Writable)
	if err != nil || first2 {
		t.Fatalf("second Map: %v first=%v", err, first2)
	}
	if p.CoreMapCount(100) != 2 {
		t.Errorf("count = %d", p.CoreMapCount(100))
	}
	// Idempotent remap by the same core.
	f3, err := p.Map(2, 100, 7, 0)
	if err != nil || f3 {
		t.Error("re-map by same core must be a no-op")
	}
	if p.CoreMapCount(100) != 2 {
		t.Error("count changed on idempotent map")
	}
	// The PTE is visible only in mapping cores' tables.
	if _, _, ok := p.Lookup(0, 100); !ok {
		t.Error("core 0 must resolve")
	}
	if _, _, ok := p.Lookup(1, 100); ok {
		t.Error("core 1 must NOT resolve — that is the point of PSPT")
	}
	// The record's core set is the precise shootdown target set.
	var want CoreSet
	want.Add(0)
	want.Add(2)
	if m, ok := p.Mapping(100); !ok || m.Base != 100 || m.PFN != 7 || m.Cores != want {
		t.Errorf("Mapping(100) = %+v, %v; want cores {0, 2}", m, ok)
	}
}

func TestMapInconsistent(t *testing.T) {
	p := New(2, sim.Size64k, 0)
	if _, err := p.Map(0, 96, 96, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Map(1, 96, 112, 0); err == nil {
		t.Error("different frame must be rejected")
	}
	if _, err := p.Map(1, 101, 0, 0); err == nil {
		t.Error("unaligned 64k base must be rejected")
	}
	if m, ok := p.Mapping(100); !ok || m.Base != 96 || m.PFN != 96 || m.Cores.Count() != 1 {
		t.Errorf("rejected maps changed the record: %+v, %v", m, ok)
	}
}

func TestCopyFromSibling(t *testing.T) {
	p := New(3, sim.Size4k, 0)
	if _, ok, err := p.CopyFromSibling(1, 50, 0); ok || err != nil {
		t.Error("copy with no sibling mapping must find nothing")
	}
	if _, err := p.Map(0, 50, 3, pagetable.Writable); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := p.CopyFromSibling(1, 50, pagetable.Writable); err != nil || !ok {
		t.Fatalf("copy failed: %v", err)
	}
	if p.CoreMapCount(50) != 2 {
		t.Errorf("count = %d", p.CoreMapCount(50))
	}
	e, _, ok := p.Lookup(1, 50)
	if !ok || e.PFN() != 3 {
		t.Error("copied PTE wrong")
	}
	// Copy by a core that already maps it: no change.
	if _, _, err := p.CopyFromSibling(1, 50, 0); err != nil || p.CoreMapCount(50) != 2 {
		t.Error("redundant copy must be a no-op")
	}
}

func TestUnmapReturnsTargets(t *testing.T) {
	p := New(4, sim.Size4k, 0)
	p.Map(0, 10, 1, pagetable.Writable)
	p.CopyFromSibling(2, 10, pagetable.Writable)
	p.CopyFromSibling(3, 10, pagetable.Writable)
	p.Touch(2, 10, true) // dirty on core 2's private PTE
	m, dirty, ok := p.Unmap(10)
	if !ok {
		t.Fatal("Unmap found nothing")
	}
	if got := m.Cores.Count(); got != 3 {
		t.Errorf("target count = %d", got)
	}
	if !dirty {
		t.Error("dirty bit on any core must propagate")
	}
	for c := sim.CoreID(0); c < 4; c++ {
		if _, _, ok := p.Lookup(c, 10); ok {
			t.Errorf("core %d still maps after Unmap", c)
		}
	}
	if p.ResidentMappings() != 0 {
		t.Error("record leak")
	}
	if _, _, ok := p.Unmap(10); ok {
		t.Error("second Unmap must find nothing")
	}
}

func TestTouchSetsBits(t *testing.T) {
	p := New(2, sim.Size4k, 0)
	p.Map(0, 5, 1, pagetable.Writable)
	p.Touch(0, 5, false)
	e, _, _ := p.Lookup(0, 5)
	if !e.Has(pagetable.Accessed) || e.Has(pagetable.Dirty) {
		t.Error("read touch must set only accessed")
	}
	p.Touch(0, 5, true)
	e, _, _ = p.Lookup(0, 5)
	if !e.Has(pagetable.Dirty) {
		t.Error("write touch must set dirty")
	}
	p.Touch(1, 5, true) // core 1 has no mapping; must not panic
}

func TestScanAccessed(t *testing.T) {
	p := New(3, sim.Size4k, 0)
	p.Map(0, 5, 1, 0)
	p.CopyFromSibling(1, 5, 0)
	p.Touch(0, 5, false)
	// Only core 0 touched; scan must clear its bit and target core 0.
	acc, targets, _ := p.ScanAccessed(5, nil)
	if !acc {
		t.Error("accessed must be reported")
	}
	if len(targets) != 1 || targets[0] != 0 {
		t.Errorf("targets = %v, want [0]", targets)
	}
	// Second scan: nothing set, no shootdowns needed.
	acc, targets, _ = p.ScanAccessed(5, nil)
	if acc || len(targets) != 0 {
		t.Errorf("idle scan: acc=%v targets=%v", acc, targets)
	}
	// Scan of absent page.
	acc, targets, ptes := p.ScanAccessed(999, nil)
	if acc || len(targets) != 0 || ptes != 1 {
		t.Error("absent page scan")
	}
}

func TestPSPT64kMapping(t *testing.T) {
	p := New(2, sim.Size64k, 0)
	first, err := p.Map(0, 32, 64, pagetable.Writable)
	if err != nil || !first {
		t.Fatal(err)
	}
	if err := p.Table(0).Validate64k(32); err != nil {
		t.Errorf("group invalid: %v", err)
	}
	// A fault anywhere in the group resolves via the same record.
	if got, ok := p.Mapping(40); !ok || got.Base != 32 || got.PFN != 64 {
		t.Error("member vpn must find the group record")
	}
	if p.CoreMapCount(47) != 1 {
		t.Error("count via member vpn")
	}
	p.CopyFromSibling(1, 40, pagetable.Writable)
	if err := p.Table(1).Validate64k(32); err != nil {
		t.Errorf("copied group invalid: %v", err)
	}
	p.Touch(1, 44, true)
	if _, _, ptes := p.ScanAccessed(33, nil); ptes != sim.Span64k {
		t.Errorf("a 64k group scan tests %d PTEs, want 16", ptes)
	}
	if mm, _, ok := p.Unmap(33); !ok || mm.Base != 32 {
		t.Fatal("group unmap failed")
	}
	for c := sim.CoreID(0); c < 2; c++ {
		for v := sim.PageID(32); v < 48; v++ {
			if _, _, ok := p.Lookup(c, v); ok {
				t.Fatalf("core %d vpn %d survived group unmap", c, v)
			}
		}
	}
}

func TestPSPT2MMapping(t *testing.T) {
	p := New(2, sim.Size2M, 0)
	if _, err := p.Map(0, 512, 0, pagetable.Writable); err != nil {
		t.Fatal(err)
	}
	if p.CoreMapCount(512+300) != 1 {
		t.Error("2M member count")
	}
	p.Touch(0, 900, true)
	e, size, ok := p.Lookup(0, 700)
	if !ok || size != sim.Size2M || !e.Has(pagetable.Dirty) {
		t.Errorf("2M lookup: %v %v %v", e, size, ok)
	}
	acc, targets, ptes := p.ScanAccessed(600, nil)
	if !acc || len(targets) != 1 || ptes != 1 {
		t.Errorf("2M scan: %v %v", acc, targets)
	}
	if _, dirty, ok := p.Unmap(1000); !ok || !dirty {
		t.Error("2M unmap must see dirty PTE")
	}
}

func TestSharingHistogram(t *testing.T) {
	p := New(4, sim.Size4k, 0)
	p.Map(0, 1, 1, 0) // 1 core
	p.Map(0, 2, 2, 0) // will get 2 cores
	p.CopyFromSibling(1, 2, 0)
	p.Map(0, 3, 3, 0) // will get 4 cores
	for c := sim.CoreID(1); c < 4; c++ {
		p.CopyFromSibling(c, 3, 0)
	}
	h := p.SharingHistogram()
	if h[1] != 1 || h[2] != 1 || h[4] != 1 || h[3] != 0 {
		t.Errorf("histogram = %v", h)
	}
}

func TestMappingInvariantProperty(t *testing.T) {
	// Property: after any sequence of map/copy/unmap, every resident
	// record's core set matches exactly the cores whose private tables
	// resolve the base VPN.
	f := func(ops []uint16) bool {
		p := New(8, sim.Size4k, 0)
		for _, op := range ops {
			core := sim.CoreID(op % 8)
			vpn := sim.PageID((op >> 3) % 32)
			switch (op >> 8) % 3 {
			case 0:
				p.Map(core, vpn, int64(vpn), 0)
			case 1:
				p.CopyFromSibling(core, vpn, 0)
			case 2:
				p.Unmap(vpn)
			}
		}
		okAll := true
		p.ForEachMapping(func(m Mapping) {
			for c := sim.CoreID(0); c < 8; c++ {
				_, _, resolves := p.Lookup(c, m.Base)
				if resolves != m.Cores.Has(c) {
					okAll = false
				}
			}
		})
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(111))}); err != nil {
		t.Error(err)
	}
}
