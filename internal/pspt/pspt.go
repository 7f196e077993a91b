// Package pspt implements per-core Partially Separated Page Tables,
// the substrate from the authors' earlier CCGrid'13 paper that CMCP
// builds on. Each core owns a private page table for the computation
// area; kernel and regular user mappings live in a shared table (not
// modelled here — only the computation area pages fault). Because every
// core sets up PTEs only for addresses it actually touches:
//
//   - the set of cores mapping a page is known exactly, so a TLB
//     shootdown on unmap goes only to those cores;
//   - the number of mapping cores (the core-map count) is available as
//     a free by-product, which is the auxiliary knowledge CMCP uses;
//   - page-table synchronization is per-page, not address-space wide.
package pspt

import (
	"fmt"
	"math/bits"

	"cmcp/internal/pagetable"
	"cmcp/internal/sim"
)

// MaxCores is the largest number of cores a PSPT instance supports
// (the core set is a fixed 128-bit bitmap; KNC has 60 cores + scanner).
const MaxCores = 128

// CoreSet is a bitmap of core IDs.
type CoreSet [2]uint64

// Add sets core's bit.
func (s *CoreSet) Add(c sim.CoreID) { s[c>>6] |= 1 << (uint(c) & 63) }

// Remove clears core's bit.
func (s *CoreSet) Remove(c sim.CoreID) { s[c>>6] &^= 1 << (uint(c) & 63) }

// Has reports whether core's bit is set.
func (s CoreSet) Has(c sim.CoreID) bool { return s[c>>6]&(1<<(uint(c)&63)) != 0 }

// Count returns the number of cores in the set — the core-map count.
func (s CoreSet) Count() int { return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) }

// Cores returns the member core IDs in ascending order, appended to dst.
func (s CoreSet) Cores(dst []sim.CoreID) []sim.CoreID {
	for w := 0; w < 2; w++ {
		v := s[w]
		for v != 0 {
			b := bits.TrailingZeros64(v)
			dst = append(dst, sim.CoreID(w*64+b))
			v &^= 1 << uint(b)
		}
	}
	return dst
}

// Pop removes and returns the lowest member core; ok is false when the
// set is empty. Popping a copy walks the members in ascending order
// without building a slice.
func (s *CoreSet) Pop() (c sim.CoreID, ok bool) {
	for w := range s {
		if s[w] != 0 {
			b := bits.TrailingZeros64(s[w])
			s[w] &^= 1 << uint(b)
			return sim.CoreID(w*64 + b), true
		}
	}
	return 0, false
}

// Mapping is a view of the record for one mapped region of the
// computation area: its size-aligned base, base physical frame and the
// set of cores holding a private PTE for it. It is a copy: later
// operations on the PSPT do not change it.
type Mapping struct {
	Base  sim.PageID
	PFN   int64
	Cores CoreSet
}

// entry is the record of the mapping whose size-aligned base is this
// entry's index, in the shape of a kernel coremap entry: one flat slot
// per page, so finding a record is an array read.
type entry struct {
	present bool
	pfn     int64
	cores   CoreSet
	// lock serializes page-table updates to the resident mapping; Unmap
	// zeroes it with the rest of the record.
	lock sim.Resource
}

func (e *entry) view(base sim.PageID) Mapping {
	return Mapping{Base: base, PFN: e.pfn, Cores: e.cores}
}

// PSPT is the per-core partially separated page table set for one
// address space on n cores. Every mapping has the one page size fixed
// at construction. Mapping records live in ents, indexed by base VPN.
//
// acc and dirty summarize the per-core attribute bits so the hit path
// need not walk a table to set bits that are already set. Bit
// vpn&63 of word core*words + vpn>>6 mirrors the accessed (dirty) bit
// of core's 4 kB PTE or 64 kB member PTE for vpn: set exactly when
// that PTE is present and carries the bit. 2 MB mappings and VPNs past
// the sized range are not tracked (their bits stay clear) and always
// walk.
type PSPT struct {
	n      int
	size   sim.PageSize
	tables []*pagetable.Table
	ents   []entry // base VPN -> record; grows by doubling
	count  int     // live mapping records

	words      int      // summary words per core: ceil(pages/64)
	acc, dirty []uint64 // accessed/dirty summary, n*words each
}

// New creates a PSPT of size mappings for n application cores, with the
// record table and the accessed/dirty summary sized for page IDs in
// [0, pages). The record table grows past that range; the summary never
// does: pages beyond it walk.
func New(n int, size sim.PageSize, pages int) *PSPT {
	if n <= 0 || n > MaxCores {
		panic(fmt.Sprintf("pspt: %d cores out of range 1..%d", n, MaxCores))
	}
	words := (pages + 63) / 64
	sum := make([]uint64, 2*n*words) // one slab for both bitmaps
	p := &PSPT{n: n, size: size, tables: make([]*pagetable.Table, n), ents: make([]entry, pages),
		words: words, acc: sum[:n*words], dirty: sum[n*words:]}
	for i := range p.tables {
		p.tables[i] = pagetable.New()
	}
	return p
}

// Cores returns the number of application cores.
func (p *PSPT) Cores() int { return p.n }

// PageSize returns the size of every mapping.
func (p *PSPT) PageSize() sim.PageSize { return p.size }

// Table exposes core's private table (tests and the scanner use it).
func (p *PSPT) Table(core sim.CoreID) *pagetable.Table { return p.tables[core] }

// Lookup resolves vpn through core's private table.
func (p *PSPT) Lookup(core sim.CoreID, vpn sim.PageID) (pagetable.PTE, sim.PageSize, bool) {
	return p.tables[core].Lookup(vpn)
}

// find returns the base and record of the mapping covering vpn; e is
// nil when vpn is not resident. e is valid until the table next grows
// (in Map).
func (p *PSPT) find(vpn sim.PageID) (base sim.PageID, e *entry) {
	base = p.size.Align(vpn)
	if uint64(base) < uint64(len(p.ents)) && p.ents[base].present {
		return base, &p.ents[base]
	}
	return 0, nil
}

// at returns base's entry, doubling the table until it covers base.
func (p *PSPT) at(base sim.PageID) *entry {
	if int(base) >= len(p.ents) {
		n := max(8, 2*len(p.ents))
		for n <= int(base) {
			n *= 2
		}
		p.ents = append(p.ents, make([]entry, n-len(p.ents))...)
	}
	return &p.ents[base]
}

// Mapping returns the record covering vpn; ok is false if the page is
// not resident.
func (p *PSPT) Mapping(vpn sim.PageID) (m Mapping, ok bool) {
	base, e := p.find(vpn)
	if e == nil {
		return Mapping{}, false
	}
	return e.view(base), true
}

// CoreMapCount returns the number of cores mapping vpn — the quantity
// CMCP prioritizes by. Zero means not resident.
func (p *PSPT) CoreMapCount(vpn sim.PageID) int {
	if _, e := p.find(vpn); e != nil {
		return e.cores.Count()
	}
	return 0
}

// Lock returns the virtual-time lock serializing page-table updates
// to the mapping covering base. The fault handler takes it only once
// the page is mapped, so a second core faulting the same page finds it
// resident and queues here; locking an absent page is a kernel bug and
// panics. The pointer is valid until the next Map.
func (p *PSPT) Lock(base sim.PageID) *sim.Resource {
	_, e := p.find(base)
	if e == nil {
		panic(fmt.Sprintf("pspt: lock of non-resident page %d", base))
	}
	return &e.lock
}

// summaryMask locates core's summary bits for the mapping of the given
// size at base (one bit for 4 kB, the group's 16 for 64 kB; an aligned
// group never straddles a word). tracked is false for 2 MB mappings and
// for VPNs past the sized range.
func (p *PSPT) summaryMask(core sim.CoreID, base sim.PageID, size sim.PageSize) (w int, mask uint64, tracked bool) {
	if size == sim.Size2M || uint64(base>>6) >= uint64(p.words) {
		return 0, 0, false
	}
	return int(core)*p.words + int(base>>6), (1<<uint(size.Span()) - 1) << (uint(base) & 63), true
}

// setSummary makes core's summary bits for the mapping at base match
// the accessed and dirty bits of flags, the attributes of its freshly
// installed (or, with flags 0, cleared) PTEs.
func (p *PSPT) setSummary(core sim.CoreID, base sim.PageID, flags pagetable.PTE) {
	w, mask, tracked := p.summaryMask(core, base, p.size)
	if !tracked {
		return
	}
	p.acc[w] &^= mask
	p.dirty[w] &^= mask
	if flags.Has(pagetable.Accessed) {
		p.acc[w] |= mask
	}
	if flags.Has(pagetable.Dirty) {
		p.dirty[w] |= mask
	}
}

// Summary reports core's accessed and dirty summary bits for vpn;
// tracked is false when vpn lies past the sized range. The invariant
// auditor checks them against the PTE bits.
func (p *PSPT) Summary(core sim.CoreID, vpn sim.PageID) (accessed, dirty, tracked bool) {
	w, bit, tracked := p.summaryMask(core, vpn, sim.Size4k)
	if !tracked {
		return false, false, false
	}
	return p.acc[w]&bit != 0, p.dirty[w]&bit != 0, true
}

// setInTable installs the PTEs for one mapping into a single core's
// private table.
func (p *PSPT) setInTable(core sim.CoreID, base sim.PageID, pfn int64, flags pagetable.PTE) error {
	t := p.tables[core]
	var err error
	switch p.size {
	case sim.Size4k:
		t.Set(base, pagetable.MakePTE(pfn, flags|pagetable.Present))
	case sim.Size64k:
		err = t.Set64k(base, pfn, flags)
	case sim.Size2M:
		err = t.Set2M(base, pagetable.MakePTE(pfn, flags))
	}
	if err == nil {
		p.setSummary(core, base, flags)
	}
	return err
}

// clearInTable removes one mapping's PTEs from a single core's private
// table and returns the previous entry; for a 64 kB group it carries
// the accessed and dirty bits of all 16 members.
func (p *PSPT) clearInTable(core sim.CoreID, base sim.PageID) pagetable.PTE {
	p.setSummary(core, base, 0)
	t := p.tables[core]
	switch p.size {
	case sim.Size64k:
		return t.Clear64k(base)
	case sim.Size2M:
		return t.Clear2M(base)
	default:
		return t.Clear(base)
	}
}

// Map establishes (or extends to another core) the mapping of the
// region with the given size-aligned base. The first call creates the
// bookkeeping record; later calls from other cores must agree on the
// frame. first reports whether core is the record's first mapper.
func (p *PSPT) Map(core sim.CoreID, base sim.PageID, pfn int64, flags pagetable.PTE) (first bool, err error) {
	if !p.size.Aligned(base) {
		return false, fmt.Errorf("pspt: Map base %d not %v aligned", base, p.size)
	}
	e := p.at(base)
	fresh := !e.present
	if fresh {
		e.present, e.pfn = true, pfn
		p.count++
	} else {
		if e.pfn != pfn {
			return false, fmt.Errorf("pspt: inconsistent remap of base %d: frame %d vs %d", base, e.pfn, pfn)
		}
		if e.cores.Has(core) {
			return false, nil // already mapped by this core
		}
	}
	if err := p.setInTable(core, base, pfn, flags); err != nil {
		if fresh {
			p.deleteMapping(base)
		}
		return false, err
	}
	e.cores.Add(core)
	return fresh, nil
}

// CopyFromSibling implements the PSPT minor-fault path: when core
// faults on vpn but some sibling core already maps the region, the
// faulting core copies the sibling's PTE into its own table. It returns
// the mapping record; ok is false when no sibling maps the page (major
// fault).
func (p *PSPT) CopyFromSibling(core sim.CoreID, vpn sim.PageID, flags pagetable.PTE) (m Mapping, ok bool, err error) {
	base, e := p.find(vpn)
	if e == nil {
		return Mapping{}, false, nil
	}
	// A resident record always has at least one mapping core, so a core
	// not yet in the set copies a sibling's PTE; a core already in the
	// set is a racing fault: nothing to copy.
	if !e.cores.Has(core) {
		if err := p.setInTable(core, base, e.pfn, flags); err != nil {
			return Mapping{}, false, err
		}
		e.cores.Add(core)
	}
	return e.view(base), true, nil
}

// Unmap removes the mapping covering vpn from every core's table and
// deletes the bookkeeping record. It returns the record (whose Cores
// field is the precise shootdown target set) and whether any core's PTE
// carried the dirty bit; ok is false if vpn is not resident.
func (p *PSPT) Unmap(vpn sim.PageID) (m Mapping, dirty, ok bool) {
	base, e := p.find(vpn)
	if e == nil {
		return Mapping{}, false, false
	}
	m = e.view(base)
	set := m.Cores
	for c, more := set.Pop(); more; c, more = set.Pop() {
		if p.clearInTable(c, base).Has(pagetable.Dirty) {
			dirty = true
		}
	}
	p.deleteMapping(base)
	return m, dirty, true
}

// deleteMapping zeroes base's record and lock.
func (p *PSPT) deleteMapping(base sim.PageID) {
	p.ents[base] = entry{}
	p.count--
}

// Touch simulates the MMU setting accessed/dirty bits on core's private
// PTE for vpn. For 64 kB groups the bits land on the touched sub-entry.
// When the summary shows every bit the access sets already set (the
// accessed bit, and for a write the dirty bit), no table is walked.
func (p *PSPT) Touch(core sim.CoreID, vpn sim.PageID, write bool) {
	w, bit, tracked := p.summaryMask(core, vpn, sim.Size4k)
	if tracked && p.acc[w]&bit != 0 && (!write || p.dirty[w]&bit != 0) {
		return
	}
	_, size, ok := p.tables[core].Touch(vpn, write)
	if !ok || !tracked || size == sim.Size2M {
		return
	}
	p.acc[w] |= bit
	if write {
		p.dirty[w] |= bit
	}
}

// ScanAccessed implements the statistics pass the LRU scanner performs
// on one region: it tests and clears the accessed bit in every mapping
// core's private table. It returns whether any core had accessed the
// region since the last scan, the set of cores whose TLBs must be
// invalidated (every core whose PTE was modified — on x86, clearing an
// accessed bit requires invalidating the cached translation), and the
// number of PTEs one scan tests: the 16 sub-entries of a 64 kB group
// some core maps (§4), else one. A core whose summary shows no accessed
// bit is skipped without a walk.
func (p *PSPT) ScanAccessed(vpn sim.PageID, dst []sim.CoreID) (accessed bool, targets []sim.CoreID, ptes int) {
	base, e := p.find(vpn)
	if e == nil {
		return false, dst, 1
	}
	size := p.size
	ptes = 1
	if size == sim.Size64k {
		ptes = sim.Span64k
	}
	targets = dst
	set := e.cores
	for c, ok := set.Pop(); ok; c, ok = set.Pop() {
		if w, mask, tracked := p.summaryMask(c, base, size); tracked {
			if p.acc[w]&mask == 0 {
				continue
			}
			p.acc[w] &^= mask
		}
		t := p.tables[c]
		hit := false
		switch size {
		case sim.Size2M:
			t.Update2M(base, func(e pagetable.PTE) pagetable.PTE {
				if e.Has(pagetable.Accessed) {
					hit = true
					return e.Without(pagetable.Accessed)
				}
				return e
			})
		case sim.Size64k:
			hit, _ = t.Stat64k(base, true)
		default:
			t.Update(base, func(e pagetable.PTE) pagetable.PTE {
				if e.Has(pagetable.Accessed) {
					hit = true
					return e.Without(pagetable.Accessed)
				}
				return e
			})
		}
		// Clearing (or even scanning-with-clear finding nothing set)
		// only requires invalidation when a bit actually changed.
		if hit {
			accessed = true
			targets = append(targets, c)
		}
	}
	return accessed, targets, ptes
}

// ResidentMappings returns the number of live mapping records.
func (p *PSPT) ResidentMappings() int { return p.count }

// ForEachMapping calls fn for every live mapping record, in ascending
// base order (the page-indexed table makes that order free).
func (p *PSPT) ForEachMapping(fn func(Mapping)) {
	for base := range p.ents {
		if e := &p.ents[base]; e.present {
			fn(e.view(sim.PageID(base)))
		}
	}
}

// SharingHistogram returns hist where hist[k] is the number of resident
// mappings whose core-map count is exactly k (k from 0 to Cores()).
// This is the quantity Figure 6 of the paper plots.
func (p *PSPT) SharingHistogram() []int {
	hist := make([]int, p.n+1)
	p.ForEachMapping(func(m Mapping) {
		hist[m.Cores.Count()]++
	})
	return hist
}
