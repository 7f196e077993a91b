package pagetable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cmcp/internal/sim"
)

func TestSet64kValidation(t *testing.T) {
	tab := New()
	if err := tab.Set64k(5, 0, 0); err == nil {
		t.Error("unaligned vpn must fail")
	}
	if err := tab.Set64k(16, 5, 0); err == nil {
		t.Error("unaligned pfn must fail")
	}
	if err := tab.Set64k(16, 16, Large); err == nil {
		t.Error("Large flag must fail")
	}
	if err := tab.Set64k(16, 32, Writable); err != nil {
		t.Fatal(err)
	}
	if err := tab.Validate64k(16); err != nil {
		t.Errorf("well-formed group invalid: %v", err)
	}
	if err := tab.Validate64k(25); err != nil {
		t.Errorf("validation via member vpn: %v", err)
	}
	if tab.PresentPages() != 16 || tab.Mappings() != 16 {
		t.Errorf("present=%d mappings=%d", tab.PresentPages(), tab.Mappings())
	}
}

func TestIs64k(t *testing.T) {
	tab := New()
	tab.Set(0, MakePTE(1, Present))
	if tab.Is64k(0) {
		t.Error("plain 4k entry reported as 64k")
	}
	if err := tab.Set64k(16, 16, 0); err != nil {
		t.Fatal(err)
	}
	if !tab.Is64k(16) || !tab.Is64k(31) {
		t.Error("group members must report 64k")
	}
	if tab.Is64k(32) {
		t.Error("page outside group reported as 64k")
	}
}

func TestTouch64kSetsIndividualSubEntry(t *testing.T) {
	// The paper's key oddity: the dirty bit lands on the 4 kB sub-entry
	// actually written, not on the group's first entry.
	tab := New()
	if err := tab.Set64k(0, 0, Writable); err != nil {
		t.Fatal(err)
	}
	tab.Touch(9, true)
	first, _, _ := tab.Lookup(0)
	ninth, _, _ := tab.Lookup(9)
	if first.Has(Dirty) || first.Has(Accessed) {
		t.Error("first entry must not carry the attribute bits")
	}
	if !ninth.Has(Dirty) || !ninth.Has(Accessed) {
		t.Error("touched sub-entry must carry accessed+dirty")
	}
}

func TestStat64kIteratesGroup(t *testing.T) {
	tab := New()
	if err := tab.Set64k(32, 32, Writable); err != nil {
		t.Fatal(err)
	}
	a, d := tab.Stat64k(32, false)
	if a || d {
		t.Error("untouched group must be clean")
	}
	tab.Touch(40, false) // read on member 8
	a, d = tab.Stat64k(35, false)
	if !a || d {
		t.Errorf("accessed=%v dirty=%v, want true,false", a, d)
	}
	tab.Touch(47, true) // write on member 15
	a, d = tab.Stat64k(32, true)
	if !a || !d {
		t.Error("accessed+dirty must be visible via group stat")
	}
	// clear=true must have cleared accessed but preserved dirty.
	a, d = tab.Stat64k(32, false)
	if a {
		t.Error("accessed bit must have been cleared by scanning")
	}
	if !d {
		t.Error("dirty must survive the accessed-bit scan")
	}
}

func TestClear64k(t *testing.T) {
	tab := New()
	if err := tab.Set64k(64, 128, 0); err != nil {
		t.Fatal(err)
	}
	tab.Touch(71, true)       // store to member 7 only
	first := tab.Clear64k(70) // clearing via a member vpn
	if first.PFN() != 128 {
		t.Errorf("Clear64k returned pfn %d, want 128", first.PFN())
	}
	if !first.Has(Accessed | Dirty) {
		t.Error("Clear64k must fold member 7's accessed and dirty bits into its result")
	}
	for i := sim.PageID(64); i < 80; i++ {
		if _, _, ok := tab.Lookup(i); ok {
			t.Fatalf("member %d survived Clear64k", i)
		}
	}
	if tab.PresentPages() != 0 {
		t.Error("count leak after Clear64k")
	}
}

func TestGroup64kInvariantProperty(t *testing.T) {
	// Property: any aligned Set64k yields a group that passes
	// Validate64k from every member VPN.
	f := func(g uint8, pf uint8) bool {
		tab := New()
		vpn := sim.PageID(g%64) * sim.Span64k
		pfn := int64(pf%64) * sim.Span64k
		if err := tab.Set64k(vpn, pfn, Writable); err != nil {
			return false
		}
		for i := sim.PageID(0); i < sim.Span64k; i++ {
			if tab.Validate64k(vpn+i) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(104))}); err != nil {
		t.Error(err)
	}
}

func TestValidate64kDetectsCorruption(t *testing.T) {
	tab := New()
	if err := tab.Set64k(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Corrupt one member: break contiguity.
	tab.Set(5, MakePTE(999, Present|Hint64k))
	if err := tab.Validate64k(0); err == nil {
		t.Error("validation must detect non-contiguous member")
	}
	// Missing member.
	tab2 := New()
	if err := tab2.Set64k(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	tab2.Clear(7)
	if err := tab2.Validate64k(0); err == nil {
		t.Error("validation must detect missing member")
	}
	// No group at all.
	if err := New().Validate64k(0); err == nil {
		t.Error("validation of absent group must fail")
	}
}
