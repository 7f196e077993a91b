package pagetable

import (
	"fmt"

	"cmcp/internal/sim"
)

// Geometry: a VPN is 36 bits (256 TB of virtual address space at 4 kB
// granularity, as in x86-64 long mode). The low 9 bits index a leaf of
// 512 PTEs, the next 9 a region within a chunk (one region per 2 MB
// block), and the top 18 the table's directory of chunks (1 GB each).
const (
	leafBits  = 9
	fanout    = 1 << leafBits
	mask      = fanout - 1
	chunkBits = 2 * leafBits

	// VPNSpace is the number of virtual pages a table can map: it
	// holds VPNs in [0, VPNSpace).
	VPNSpace = 1 << 36
)

// region is the 2 MB block of VPNs one PMD entry would cover: either a
// 2 MB mapping in large, or 4 kB entries (64 kB group members among
// them) in leaf, allocated on first use. A leaf holds no pointers, so
// the garbage collector never scans it.
type region struct {
	leaf  *[fanout]PTE
	large PTE // Present|Large when the block is one 2 MB mapping
}

// chunk is the 512 regions of one 1 GB span of VPNs.
type chunk [fanout]region

// Table is one page table, indexed directly by VPN: a 4 kB lookup is
// top[vpn>>18][(vpn>>9)&511].leaf[vpn&511]. The directory grows on
// demand to the highest chunk mapped. It is not safe for concurrent
// use while anything mutates it; the simulation engine serializes
// mutations and models locking costs separately (sim.Resource).
type Table struct {
	top      []*chunk
	present  int // number of present 4 kB-equivalent leaf PTEs (2M counts as 512)
	mappings int // number of present mappings of any size
}

// New returns an empty table. Address spaces start at VPN 0, so the
// directory starts with one (empty) chunk slot.
func New() *Table { return &Table{top: make([]*chunk, 1)} }

// PresentPages returns the number of present base pages (a 2 MB mapping
// counts as 512, a 64 kB group as its 16 member PTEs).
func (t *Table) PresentPages() int { return t.present }

// Mappings returns the number of distinct present mappings.
func (t *Table) Mappings() int { return t.mappings }

// region returns the region holding vpn, or nil when its chunk is
// absent or vpn lies outside [0, VPNSpace).
func (t *Table) region(vpn sim.PageID) *region {
	if i := uint64(vpn) >> chunkBits; i < uint64(len(t.top)) {
		if c := t.top[i]; c != nil {
			return &c[(vpn>>leafBits)&mask]
		}
	}
	return nil
}

// regionFor is region that allocates the chunk (and grows the
// directory) as needed. A VPN outside [0, VPNSpace) is a kernel bug
// and panics.
func (t *Table) regionFor(vpn sim.PageID) *region {
	if uint64(vpn) >= VPNSpace {
		panic(fmt.Sprintf("pagetable: vpn %d outside the %d-page space", vpn, VPNSpace))
	}
	i := int(vpn >> chunkBits)
	if i >= len(t.top) {
		t.top = append(t.top, make([]*chunk, i+1-len(t.top))...)
	}
	c := t.top[i]
	if c == nil {
		c = new(chunk)
		t.top[i] = c
	}
	return &c[(vpn>>leafBits)&mask]
}

// slot returns the present entry translating vpn — the 2 MB entry or
// the 4 kB leaf entry — and its mapping size, or nil when there is
// none.
func (t *Table) slot(vpn sim.PageID) (*PTE, sim.PageSize) {
	r := t.region(vpn)
	if r == nil {
		return nil, sim.Size4k
	}
	if r.large.Has(Present | Large) {
		return &r.large, sim.Size2M
	}
	if r.leaf == nil {
		return nil, sim.Size4k
	}
	e := &r.leaf[vpn&mask]
	if !e.Has(Present) {
		return nil, sim.Size4k
	}
	if e.Has(Hint64k) {
		return e, sim.Size64k
	}
	return e, sim.Size4k
}

// leafSlot returns vpn's 4 kB leaf entry, present or not, or nil when
// its leaf is absent.
func (t *Table) leafSlot(vpn sim.PageID) *PTE {
	if r := t.region(vpn); r != nil && r.leaf != nil {
		return &r.leaf[vpn&mask]
	}
	return nil
}

// deref turns slot's result into Lookup's.
func deref(e *PTE, size sim.PageSize) (PTE, sim.PageSize, bool) {
	if e == nil {
		return 0, sim.Size4k, false
	}
	return *e, size, true
}

// Lookup resolves vpn. It follows 2 MB entries and returns the
// governing PTE, the mapping size, and whether a translation exists.
// For a 64 kB group it returns the individual 4 kB member entry (which
// carries the Hint64k bit); callers decide group behaviour. Lookup
// writes nothing, so any number of goroutines may call it on a table
// nothing is mutating.
func (t *Table) Lookup(vpn sim.PageID) (PTE, sim.PageSize, bool) {
	return deref(t.slot(vpn))
}

// Set installs a 4 kB entry for vpn, replacing any previous 4 kB entry.
// Installing over a 2 MB mapping or outside [0, VPNSpace) is a kernel
// bug and panics.
func (t *Table) Set(vpn sim.PageID, e PTE) {
	if e.Has(Large) {
		panic("pagetable: Set with Large bit; use Set2M")
	}
	r := t.regionFor(vpn)
	if r.large.Has(Present | Large) {
		panic(fmt.Sprintf("pagetable: 4k Set inside live 2M mapping at vpn %d", vpn))
	}
	if r.leaf == nil {
		r.leaf = new([fanout]PTE)
	}
	slot := &r.leaf[vpn&mask]
	was := slot.Has(Present)
	*slot = e
	if e.Has(Present) && !was {
		t.present++
		t.mappings++
	} else if !e.Has(Present) && was {
		t.present--
		t.mappings--
	}
}

// Clear removes the 4 kB entry for vpn, returning the previous entry.
func (t *Table) Clear(vpn sim.PageID) PTE {
	slot := t.leafSlot(vpn)
	if slot == nil {
		return 0
	}
	old := *slot
	if old.Has(Present) {
		t.present--
		t.mappings--
	}
	*slot = 0
	return old
}

// Update applies fn to the present 4 kB entry for vpn and stores the
// result. It reports whether an entry was present. fn must not change
// the Present or Large bits.
func (t *Table) Update(vpn sim.PageID, fn func(PTE) PTE) bool {
	slot := t.leafSlot(vpn)
	if slot == nil || !slot.Has(Present) {
		return false
	}
	*slot = fn(*slot)
	return true
}

// Touch simulates the MMU on an access to vpn: it sets the accessed
// bit (and, for writes, the dirty bit) on the entry translating vpn in
// one walk and returns the updated entry and its size. For a 64 kB
// group the bits land on the touched member only (§4); a 2 MB mapping
// carries them on its 2 MB entry. ok is false when vpn has no
// translation.
func (t *Table) Touch(vpn sim.PageID, write bool) (e PTE, size sim.PageSize, ok bool) {
	slot, size := t.slot(vpn)
	if slot != nil {
		*slot |= Accessed
		if write {
			*slot |= Dirty
		}
	}
	return deref(slot, size)
}

// Set2M installs a 2 MB mapping. vpn must be 2 MB aligned, inside
// [0, VPNSpace) (else it panics), and no 4 kB mappings may exist
// underneath.
func (t *Table) Set2M(vpn sim.PageID, e PTE) error {
	if !sim.Size2M.Aligned(vpn) {
		return fmt.Errorf("pagetable: Set2M at unaligned vpn %d", vpn)
	}
	r := t.regionFor(vpn)
	if r.leaf != nil {
		for _, p := range r.leaf {
			if p.Has(Present) {
				return fmt.Errorf("pagetable: Set2M over live 4k mappings at vpn %d", vpn)
			}
		}
	}
	was := r.large.Has(Present)
	r.large = e | Large | Present
	if !was {
		t.present += sim.Span2M
		t.mappings++
	}
	return nil
}

// Clear2M removes the 2 MB mapping covering vpn, returning the previous
// entry.
func (t *Table) Clear2M(vpn sim.PageID) PTE {
	r := t.region(vpn)
	if r == nil {
		return 0
	}
	old := r.large
	if old.Has(Present | Large) {
		t.present -= sim.Span2M
		t.mappings--
		r.large = 0
	}
	return old
}

// Update2M applies fn to the present 2 MB entry covering vpn.
func (t *Table) Update2M(vpn sim.PageID, fn func(PTE) PTE) bool {
	r := t.region(vpn)
	if r == nil || !r.large.Has(Present|Large) {
		return false
	}
	r.large = fn(r.large)
	return true
}

// ForEachPresent calls fn for every present mapping: once per 4 kB
// entry (including 64 kB group members) and once per 2 MB entry with
// its aligned VPN. Iteration order is ascending VPN.
func (t *Table) ForEachPresent(fn func(vpn sim.PageID, e PTE, size sim.PageSize)) {
	for ci, c := range t.top {
		if c == nil {
			continue
		}
		for ri := range c {
			r := &c[ri]
			base := sim.PageID(ci)<<chunkBits | sim.PageID(ri)<<leafBits
			if r.large.Has(Present | Large) {
				fn(base, r.large, sim.Size2M)
				continue
			}
			if r.leaf == nil {
				continue
			}
			for i, e := range r.leaf {
				if !e.Has(Present) {
					continue
				}
				size := sim.Size4k
				if e.Has(Hint64k) {
					size = sim.Size64k
				}
				fn(base+sim.PageID(i), e, size)
			}
		}
	}
}
