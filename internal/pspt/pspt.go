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

	"cmcp/internal/dense"
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

// SocketSet is a bitmap of NUMA socket IDs (Topology caps Sockets at
// 32, so one word suffices).
type SocketSet uint32

// Add sets socket s's bit.
func (ss *SocketSet) Add(s int) { *ss |= 1 << uint(s) }

// Has reports whether socket s's bit is set.
func (ss SocketSet) Has(s int) bool { return ss&(1<<uint(s)) != 0 }

// Count returns the number of sockets in the set.
func (ss SocketSet) Count() int { return bits.OnesCount32(uint32(ss)) }

// Mapping is the bookkeeping record for one mapped region of the
// computation area: its size class, base physical frame, the set of
// cores holding a private PTE for it, and the per-page lock used to
// model fine-grained synchronization in virtual time.
//
// Under a multi-socket topology the record also carries the numaPTE
// state for the page-table page backing this region: which sockets
// hold a replica (Replicas), which socket the authoritative copy is
// homed on (Home), and how many consecutive consults arrived from a
// non-home socket (RemoteStreak — the migration trigger). All three
// stay zero on flat runs.
type Mapping struct {
	Base  sim.PageID // size-aligned virtual base page
	Size  sim.PageSize
	PFN   int64
	Cores CoreSet
	Lock  sim.Resource

	Replicas     SocketSet // sockets holding a page-table replica
	Home         int8      // socket owning the authoritative copy
	RemoteStreak uint8     // consecutive consults from one remote socket
}

// PSPT is the per-core partially separated page table set for one
// address space on n cores. Mapping records live in a chunked store
// with stable pointers; a page-indexed table maps each size-aligned
// base VPN to its record handle, replacing the old map lookup on the
// fault path with an array read.
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
	tables []*pagetable.Table
	store  dense.Store[Mapping]
	idx    dense.Index // base VPN -> store handle
	count  int         // live mapping records

	words      int      // summary words per core: ceil(pages/64)
	acc, dirty []uint64 // accessed/dirty summary, n*words each

	topo *sim.Topology // nil on flat runs: no replica bookkeeping

	unmapOut   Mapping      // reusable Unmap return record
	rebuildOut []sim.CoreID // reusable Rebuild target buffer
}

// New creates a PSPT for n application cores.
func New(n int) *PSPT { return NewSized(n, 0, nil) }

// NewSized is New with the base-VPN index and the accessed/dirty
// summary sized for page IDs in [0, pages) and drawn from sc (both
// optional). The summary never grows: pages beyond the range walk.
func NewSized(n, pages int, sc *dense.Scratch) *PSPT {
	if n <= 0 || n > MaxCores {
		panic(fmt.Sprintf("pspt: %d cores out of range 1..%d", n, MaxCores))
	}
	words := (pages + 63) / 64
	sum := sc.U64(2 * n * words) // one slab for both bitmaps
	p := &PSPT{n: n, tables: make([]*pagetable.Table, n), idx: dense.NewIndex(sc, pages),
		words: words, acc: sum[:n*words], dirty: sum[n*words:]}
	for i := range p.tables {
		p.tables[i] = pagetable.New()
	}
	return p
}

// Cores returns the number of application cores.
func (p *PSPT) Cores() int { return p.n }

// SetTopology attaches the machine topology, enabling per-socket
// page-table replica bookkeeping on every subsequent Map/CopyFromSibling.
// A nil or single-socket topology keeps the flat behavior (no replica
// state is ever written), preserving bit-identity.
func (p *PSPT) SetTopology(t *sim.Topology) { p.topo = t }

// Topology returns the attached topology (nil on flat runs).
func (p *PSPT) Topology() *sim.Topology { return p.topo }

// Table exposes core's private table (tests and the scanner use it).
func (p *PSPT) Table(core sim.CoreID) *pagetable.Table { return p.tables[core] }

// Lookup resolves vpn through core's private table.
func (p *PSPT) Lookup(core sim.CoreID, vpn sim.PageID) (pagetable.PTE, sim.PageSize, bool) {
	return p.tables[core].Lookup(vpn)
}

// Mapping returns the bookkeeping record covering vpn, trying each size
// class's alignment, or nil if the page is not resident.
func (p *PSPT) Mapping(vpn sim.PageID) *Mapping {
	for _, s := range sizeClasses {
		if h := p.idx.Get(s.Align(vpn)); h >= 0 {
			m := p.store.At(h)
			if vpn < m.Base+m.Size.Span() {
				return m
			}
		}
	}
	return nil
}

var sizeClasses = [3]sim.PageSize{sim.Size4k, sim.Size64k, sim.Size2M}

// CoreMapCount returns the number of cores mapping vpn — the quantity
// CMCP prioritizes by. Zero means not resident.
func (p *PSPT) CoreMapCount(vpn sim.PageID) int {
	if m := p.Mapping(vpn); m != nil {
		return m.Cores.Count()
	}
	return 0
}

// MappingCores appends the IDs of cores mapping vpn to dst. This is the
// precise shootdown target set PSPT makes available.
func (p *PSPT) MappingCores(vpn sim.PageID, dst []sim.CoreID) []sim.CoreID {
	if m := p.Mapping(vpn); m != nil {
		return m.Cores.Cores(dst)
	}
	return dst
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

// setSummary makes core's summary bits for a mapping match the
// accessed and dirty bits of flags, the attributes of its freshly
// installed (or, with flags 0, cleared) PTEs.
func (p *PSPT) setSummary(core sim.CoreID, base sim.PageID, size sim.PageSize, flags pagetable.PTE) {
	w, mask, tracked := p.summaryMask(core, base, size)
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
func (p *PSPT) setInTable(core sim.CoreID, base sim.PageID, size sim.PageSize, pfn int64, flags pagetable.PTE) error {
	t := p.tables[core]
	var err error
	switch size {
	case sim.Size4k:
		t.Set(base, pagetable.MakePTE(pfn, flags|pagetable.Present))
	case sim.Size64k:
		err = t.Set64k(base, pfn, flags)
	case sim.Size2M:
		err = t.Set2M(base, pagetable.MakePTE(pfn, flags))
	default:
		err = fmt.Errorf("pspt: unknown page size %v", size)
	}
	if err == nil {
		p.setSummary(core, base, size, flags)
	}
	return err
}

// clearInTable removes one mapping's PTEs from a single core's private
// table and returns the previous entry; for a 64 kB group it carries
// the accessed and dirty bits of all 16 members.
func (p *PSPT) clearInTable(core sim.CoreID, base sim.PageID, size sim.PageSize) pagetable.PTE {
	p.setSummary(core, base, size, 0)
	t := p.tables[core]
	switch size {
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
// bookkeeping record; later calls from other cores must agree on size
// and frame. It returns the record and whether this was the first core.
func (p *PSPT) Map(core sim.CoreID, base sim.PageID, size sim.PageSize, pfn int64, flags pagetable.PTE) (*Mapping, bool, error) {
	if !size.Aligned(base) {
		return nil, false, fmt.Errorf("pspt: Map base %d not %v aligned", base, size)
	}
	var m *Mapping
	fresh := false
	if h := p.idx.Get(base); h >= 0 {
		m = p.store.At(h)
		if m.Size != size || m.PFN != pfn {
			return nil, false, fmt.Errorf("pspt: inconsistent remap of base %d: %v/%d vs %v/%d",
				base, m.Size, m.PFN, size, pfn)
		}
		if m.Cores.Has(core) {
			return m, false, nil // already mapped by this core
		}
	} else {
		var h int32
		h, m = p.store.Alloc()
		m.Base, m.Size, m.PFN = base, size, pfn
		p.idx.Set(base, h)
		p.count++
		fresh = true
	}
	if err := p.setInTable(core, base, size, pfn, flags); err != nil {
		if m.Cores.Count() == 0 {
			p.deleteMapping(base)
		}
		return nil, false, err
	}
	first := m.Cores.Count() == 0
	m.Cores.Add(core)
	if p.topo.Multi() {
		s := p.topo.SocketOf(core)
		if fresh {
			// Brand-new mapping: the page-table page is created on the
			// first mapper's socket. A record that survived a Rebuild
			// keeps its Home — only the replicas were dropped.
			m.Home, m.Replicas, m.RemoteStreak = int8(s), 0, 0
		}
		m.Replicas.Add(s)
	}
	return m, first, nil
}

// CopyFromSibling implements the PSPT minor-fault path: when core
// faults on vpn but some sibling core already maps the region, the
// faulting core copies the sibling's PTE into its own table. It returns
// the mapping record, or nil when no sibling maps the page (major
// fault).
func (p *PSPT) CopyFromSibling(core sim.CoreID, vpn sim.PageID, flags pagetable.PTE) (*Mapping, error) {
	m := p.Mapping(vpn)
	if m == nil {
		return nil, nil
	}
	// A mapping record with zero cores occurs after a PSPT rebuild
	// (all private PTEs dropped): the page is still resident, the
	// kernel's frame bookkeeping resolves it without data movement.
	if m.Cores.Has(core) {
		return m, nil // racing fault; mapping already present
	}
	if err := p.setInTable(core, m.Base, m.Size, m.PFN, flags); err != nil {
		return nil, err
	}
	m.Cores.Add(core)
	if p.topo.Multi() {
		m.Replicas.Add(p.topo.SocketOf(core))
	}
	return m, nil
}

// NoteConsult records one sibling-table consult from the given socket
// against the mapping covering vpn, implementing the numaPTE placement
// protocol: remote reports whether the consult had to cross the
// interconnect (no replica on the consulting socket yet — the caller
// charges RemoteWalkExtra), and migrated reports whether this consult
// tripped the migration threshold and re-homed the page-table page to
// the consulting socket (the caller charges MigrateCost). The replica
// set then includes the consulting socket either way: a consult
// materializes a local replica, which is exactly the behavior whose
// cost numaPTE amortizes.
func (p *PSPT) NoteConsult(vpn sim.PageID, socket, threshold int) (remote, migrated bool) {
	m := p.Mapping(vpn)
	if m == nil {
		return false, false
	}
	remote = !m.Replicas.Has(socket)
	if int(m.Home) == socket {
		m.RemoteStreak = 0
	} else {
		if m.RemoteStreak < 255 {
			m.RemoteStreak++
		}
		if threshold > 0 && int(m.RemoteStreak) >= threshold {
			m.Home, m.RemoteStreak = int8(socket), 0
			migrated = true
		}
	}
	m.Replicas.Add(socket)
	return remote, migrated
}

// Unmap removes the mapping covering vpn from every core's table and
// deletes the bookkeeping record. It returns the record (whose Cores
// field is the precise shootdown target set) and whether any core's PTE
// carried the dirty bit. Returns nil if vpn is not resident.
func (p *PSPT) Unmap(vpn sim.PageID) (*Mapping, bool) {
	m := p.Mapping(vpn)
	if m == nil {
		return nil, false
	}
	dirty := false
	set := m.Cores
	for c, ok := set.Pop(); ok; c, ok = set.Pop() {
		if p.clearInTable(c, m.Base, m.Size).Has(pagetable.Dirty) {
			dirty = true
		}
	}
	// The record is returned to the caller (shootdown targets), so copy
	// it out before its store slot is zeroed and recycled. The copy
	// lives in a reusable field: valid until the next Unmap.
	p.unmapOut = *m
	p.deleteMapping(m.Base)
	return &p.unmapOut, dirty
}

// deleteMapping frees base's record and index slot.
func (p *PSPT) deleteMapping(base sim.PageID) {
	if h := p.idx.Get(base); h >= 0 {
		p.store.Free(h)
		p.idx.Delete(base)
		p.count--
	}
}

// Touch simulates the MMU setting accessed/dirty bits on core's private
// PTE for vpn. For 64 kB groups the bits land on the touched sub-entry.
// written reports a write to a page core maps, and frame is then the
// frame backing vpn. When the summary shows the bits already set, no
// table is walked: a read returns at once and a write takes its frame
// from the mapping record.
func (p *PSPT) Touch(core sim.CoreID, vpn sim.PageID, write bool) (frame int64, written bool) {
	w, bit, tracked := p.summaryMask(core, vpn, sim.Size4k)
	if tracked && p.acc[w]&bit != 0 {
		if !write {
			return 0, false
		}
		if p.dirty[w]&bit != 0 {
			m := p.Mapping(vpn)
			return m.PFN + int64(vpn-m.Base), true
		}
	}
	e, size, ok := p.tables[core].Touch(vpn, write)
	if !ok {
		return 0, false
	}
	if size == sim.Size2M {
		return e.PFN() + int64(vpn-sim.Size2M.Align(vpn)), write
	}
	if tracked {
		p.acc[w] |= bit
		if write {
			p.dirty[w] |= bit
		}
	}
	return e.PFN(), write // 64 kB member PTEs carry the member frame
}

// ScanAccessed implements the statistics pass the LRU scanner performs
// on one region: it tests and clears the accessed bit in every mapping
// core's private table. It returns whether any core had accessed the
// region since the last scan and the set of cores whose TLBs must be
// invalidated (every core whose PTE was modified — on x86, clearing an
// accessed bit requires invalidating the cached translation). A core
// whose summary shows no accessed bit is skipped without a walk.
func (p *PSPT) ScanAccessed(vpn sim.PageID, dst []sim.CoreID) (accessed bool, targets []sim.CoreID) {
	m := p.Mapping(vpn)
	if m == nil {
		return false, dst
	}
	targets = dst
	set := m.Cores
	for c, ok := set.Pop(); ok; c, ok = set.Pop() {
		if w, mask, tracked := p.summaryMask(c, m.Base, m.Size); tracked {
			if p.acc[w]&mask == 0 {
				continue
			}
			p.acc[w] &^= mask
		}
		t := p.tables[c]
		hit := false
		switch m.Size {
		case sim.Size2M:
			t.Update2M(m.Base, func(e pagetable.PTE) pagetable.PTE {
				if e.Has(pagetable.Accessed) {
					hit = true
					return e.Without(pagetable.Accessed)
				}
				return e
			})
		case sim.Size64k:
			a, _ := t.Stat64k(m.Base, true)
			hit = a
		default:
			t.Update(m.Base, func(e pagetable.PTE) pagetable.PTE {
				if e.Has(pagetable.Accessed) {
					hit = true
					return e.Without(pagetable.Accessed)
				}
				return e
			})
		}
		if hit {
			accessed = true
		}
		// Clearing (or even scanning-with-clear finding nothing set)
		// only requires invalidation when a bit actually changed.
		if hit {
			targets = append(targets, c)
		}
	}
	return accessed, targets
}

// InjectPhantomCoreBit simulates lost teardown bookkeeping on the
// mapping covering vpn: the lowest core NOT currently in the core set
// gains a set bit with no backing PTE, so the derived metadata (core-map
// count, shootdown targets) overcounts until repaired. This is the
// fault-injection entry point for the inconsistency the invariant
// auditor detects and ResyncCores repairs; ok is false when the page is
// not resident or every core already maps it.
func (p *PSPT) InjectPhantomCoreBit(vpn sim.PageID) (sim.CoreID, bool) {
	m := p.Mapping(vpn)
	if m == nil {
		return 0, false
	}
	for c := 0; c < p.n; c++ {
		core := sim.CoreID(c)
		if !m.Cores.Has(core) {
			m.Cores.Add(core)
			return core, true
		}
	}
	return 0, false
}

// ResyncCores rebuilds the core set of the mapping covering vpn from
// the actual per-core table population — the recovery action for
// injected core-set skew. It reports whether the set changed; false
// also covers a non-resident vpn.
func (p *PSPT) ResyncCores(vpn sim.PageID) bool {
	m := p.Mapping(vpn)
	if m == nil {
		return false
	}
	var rebuilt CoreSet
	for c := 0; c < p.n; c++ {
		core := sim.CoreID(c)
		if _, _, ok := p.tables[c].Lookup(m.Base); ok {
			rebuilt.Add(core)
		}
	}
	changed := rebuilt != m.Cores
	m.Cores = rebuilt
	if p.topo.Multi() {
		// Replicas must stay a superset of the mapping cores' sockets;
		// recompute the minimal set from the rebuilt population.
		var rs SocketSet
		var cores []sim.CoreID
		for _, c := range rebuilt.Cores(cores) {
			rs.Add(p.topo.SocketOf(c))
		}
		m.Replicas = rs
	}
	return changed
}

// ResidentMappings returns the number of live mapping records.
func (p *PSPT) ResidentMappings() int { return p.count }

// ForEachMapping calls fn for every live mapping record, in ascending
// base order (the page-indexed table makes that order free).
func (p *PSPT) ForEachMapping(fn func(*Mapping)) {
	p.idx.Range(func(_ sim.PageID, h int32) bool {
		fn(p.store.At(h))
		return true
	})
}

// Rebuild drops every core's private PTEs while keeping the mapping
// records (frames stay owned): the sharing picture then re-forms from
// scratch as cores re-fault, which is the paper's §5.6 answer to
// workloads whose inter-core access pattern drifts over time ("a more
// dynamic solution with periodically rebuilding PSPT could address
// this issue as well"). It calls fn for every dropped (base, cores)
// pair so the caller can invalidate the affected TLBs.
func (p *PSPT) Rebuild(fn func(base sim.PageID, targets []sim.CoreID)) {
	scratch := p.rebuildOut
	p.ForEachMapping(func(m *Mapping) {
		if m.Cores.Count() == 0 {
			return
		}
		scratch = m.Cores.Cores(scratch[:0])
		for _, c := range scratch {
			p.clearInTable(c, m.Base, m.Size)
		}
		m.Cores = CoreSet{}
		// Dropping every private PTE drops the replicas too; Home stays
		// (the authoritative copy survives a rebuild).
		m.Replicas, m.RemoteStreak = 0, 0
		if fn != nil {
			fn(m.Base, scratch)
		}
	})
	p.rebuildOut = scratch[:0]
}

// SharingHistogram returns hist where hist[k] is the number of resident
// mappings whose core-map count is exactly k (k from 0 to Cores()).
// This is the quantity Figure 6 of the paper plots.
func (p *PSPT) SharingHistogram() []int {
	hist := make([]int, p.n+1)
	p.ForEachMapping(func(m *Mapping) {
		hist[m.Cores.Count()]++
	})
	return hist
}
