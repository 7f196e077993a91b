package pagetable

import (
	"fmt"

	"cmcp/internal/sim"
)

// This file implements the Xeon Phi's experimental 64 kB page support
// exactly as the paper describes it (§4):
//
//   - a 64 kB mapping is 16 regular 4 kB PTEs for 16 subsequent pages of
//     a contiguous, 64 kB-aligned region, each mapping a frame of a
//     contiguous, 64 kB-aligned physical run;
//   - a special PTE bit (Hint64k) tells cores to cache the translation
//     as one 64 kB TLB entry instead of 16 separate 4 kB entries;
//   - hardware-set attributes behave unusually: a store sets the dirty
//     bit on the 4 kB sub-entry that was actually written — NOT on the
//     first entry of the group — and the accessed bit works the same
//     way, so the OS must iterate all 16 entries to collect statistics;
//   - page sizes may be mixed freely within a 2 MB block.

// Set64k installs a 64 kB mapping: 16 PTEs with the hint bit, mapping
// vpn..vpn+15 to pfn..pfn+15. Both vpn and pfn must be 64 kB aligned.
func (t *Table) Set64k(vpn sim.PageID, pfn int64, flags PTE) error {
	if !sim.Size64k.Aligned(vpn) {
		return fmt.Errorf("pagetable: Set64k at unaligned vpn %d", vpn)
	}
	if pfn%sim.Span64k != 0 {
		return fmt.Errorf("pagetable: Set64k with unaligned pfn %d", pfn)
	}
	if flags.Has(Large) {
		return fmt.Errorf("pagetable: Set64k with 2M flag")
	}
	for i := sim.PageID(0); i < sim.Span64k; i++ {
		t.Set(vpn+i, MakePTE(pfn+int64(i), flags|Present|Hint64k))
	}
	return nil
}

// Clear64k removes the 64 kB group covering vpn and returns the first
// member's previous entry (whose PFN identifies the physical run) with
// the accessed and dirty bits of all 16 members folded in, so a store
// to any member reads as a dirty group.
func (t *Table) Clear64k(vpn sim.PageID) PTE {
	vpn = sim.Size64k.Align(vpn)
	first := t.Clear(vpn)
	for i := sim.PageID(1); i < sim.Span64k; i++ {
		first |= t.Clear(vpn+i) & (Accessed | Dirty)
	}
	return first
}

// Stat64k gathers accessed/dirty statistics for the 64 kB group
// covering vpn by iterating all 16 sub-entries, as the OS must on real
// hardware. When clear is true the accessed bits are cleared while
// scanning (the LRU scanner's operation); the caller is responsible for
// the TLB invalidation that clearing requires.
func (t *Table) Stat64k(vpn sim.PageID, clear bool) (accessed, dirty bool) {
	base := sim.Size64k.Align(vpn)
	for i := sim.PageID(0); i < sim.Span64k; i++ {
		t.Update(base+i, func(e PTE) PTE {
			if e.Has(Accessed) {
				accessed = true
				if clear {
					e = e.Without(Accessed)
				}
			}
			if e.Has(Dirty) {
				dirty = true
			}
			return e
		})
	}
	return accessed, dirty
}

// Is64k reports whether vpn is covered by a live 64 kB group.
func (t *Table) Is64k(vpn sim.PageID) bool {
	e, size, ok := t.Lookup(vpn)
	return ok && size == sim.Size64k && e.Has(Hint64k)
}

// Validate64k checks the structural invariants of the group covering
// vpn: 16 present members, hint bits set, physically contiguous and
// 64 kB-aligned frames. It returns nil for a well-formed group; the
// test suite uses it as the group invariant.
func (t *Table) Validate64k(vpn sim.PageID) error {
	base := sim.Size64k.Align(vpn)
	first, size, ok := t.Lookup(base)
	if !ok || size != sim.Size64k {
		return fmt.Errorf("pagetable: no 64k group at vpn %d", base)
	}
	if first.PFN()%sim.Span64k != 0 {
		return fmt.Errorf("pagetable: group at vpn %d has unaligned base pfn %d", base, first.PFN())
	}
	for i := sim.PageID(0); i < sim.Span64k; i++ {
		e, sz, ok := t.Lookup(base + i)
		if !ok || sz != sim.Size64k || !e.Has(Hint64k) {
			return fmt.Errorf("pagetable: member %d of group at vpn %d missing or not hinted", i, base)
		}
		if e.PFN() != first.PFN()+int64(i) {
			return fmt.Errorf("pagetable: member %d of group at vpn %d not contiguous (pfn %d, want %d)",
				i, base, e.PFN(), first.PFN()+int64(i))
		}
	}
	return nil
}
