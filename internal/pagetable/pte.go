// Package pagetable implements the software page tables of the
// simulated kernel: x86-style 64-bit PTEs in page-indexed 4 KB leaf
// arrays under a directory of 1 GB chunks of 2 MB regions, plus the
// Xeon Phi's experimental 64 kB page-group format (16 consecutive,
// aligned 4 kB PTEs carrying a hint bit, with accessed and dirty bits
// landing on individual sub-entries so statistics collection must
// iterate the group — exactly as described in §4 of the paper).
//
// The package provides the Table used both by the regular shared page
// table (one table per address space, one lock) and by PSPT (one table
// per core for the computation area).
package pagetable

import "fmt"

// PTE is a simulated x86 page table entry. The bit layout follows the
// hardware: present, writable, accessed, dirty, page-size, plus the
// Phi-specific 64 kB hint bit (a software-available bit repurposed by
// the hardware extension).
type PTE uint64

// PTE flag bits.
const (
	// Present marks a valid translation.
	Present PTE = 1 << 0
	// Writable allows stores through this mapping.
	Writable PTE = 1 << 1
	// Accessed is set by "hardware" on the first touch after clear.
	Accessed PTE = 1 << 5
	// Dirty is set by "hardware" on the first store after load.
	Dirty PTE = 1 << 6
	// Large marks a 2 MB mapping (set on a PMD-level entry).
	Large PTE = 1 << 7
	// Hint64k is the Xeon Phi's experimental bit telling cores to cache
	// this entry (and its 15 aligned successors) as one 64 kB TLB entry.
	Hint64k PTE = 1 << 11

	flagMask PTE = (1 << 12) - 1
	pfnShift     = 12
)

// MakePTE assembles an entry from a physical frame number and flags.
func MakePTE(pfn int64, flags PTE) PTE {
	return PTE(pfn)<<pfnShift | (flags & flagMask)
}

// PFN extracts the physical frame number.
func (p PTE) PFN() int64 { return int64(p >> pfnShift) }

// Has reports whether all the given flag bits are set.
func (p PTE) Has(f PTE) bool { return p&f == f }

// With returns the entry with the given flags set.
func (p PTE) With(f PTE) PTE { return p | (f & flagMask) }

// Without returns the entry with the given flags cleared.
func (p PTE) Without(f PTE) PTE { return p &^ (f & flagMask) }

// String renders the entry with its flag letters.
func (p PTE) String() string {
	if !p.Has(Present) {
		return "PTE{not-present}"
	}
	s := fmt.Sprintf("PTE{pfn=%d", p.PFN())
	for _, f := range []struct {
		bit  PTE
		name string
	}{{Writable, "W"}, {Accessed, "A"}, {Dirty, "D"}, {Large, "2M"}, {Hint64k, "64k"}} {
		if p.Has(f.bit) {
			s += " " + f.name
		}
	}
	return s + "}"
}
