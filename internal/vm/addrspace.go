// Package vm implements the virtual-memory subsystem of the simulated
// lightweight kernel: the per-access path (TLB → page walk → fault),
// the page fault handler with eviction, TLB shootdowns, write-back and
// PCIe page-in, and the glue binding page tables, device memory and a
// replacement policy together.
package vm

import (
	"fmt"

	"cmcp/internal/dense"
	"cmcp/internal/pagetable"
	"cmcp/internal/pspt"
	"cmcp/internal/sim"
)

// TableKind selects the page-table organization.
type TableKind uint8

const (
	// RegularPT is the traditional organization: one set of page tables
	// shared by all cores, protected by an address-space-wide lock.
	// Which cores cache a translation is unknowable, so every TLB
	// shootdown must broadcast to all cores.
	RegularPT TableKind = iota
	// PSPTKind uses per-core partially separated page tables: precise
	// shootdown targets, per-page locking, and core-map counts.
	PSPTKind
)

// String returns "PSPT" or "regularPT".
func (k TableKind) String() string {
	if k == PSPTKind {
		return "PSPT"
	}
	return "regularPT"
}

// addressSpace abstracts the two page-table organizations for the
// fault handler. Every mapping has the page size the address space was
// built with. All methods are bookkeeping-only; costs are charged by
// the Manager from the sim.CostModel.
type addressSpace interface {
	// Lookup resolves vpn as seen by core. It writes nothing, so probe
	// workers may call it concurrently while nothing mutates the tables.
	Lookup(core sim.CoreID, vpn sim.PageID) (pagetable.PTE, sim.PageSize, bool)

	// ResolveSibling implements the PSPT minor-fault path: if the page
	// is resident via another core, replicate its PTE into core's table
	// and return the mapping's base. Regular page tables have no such
	// path (the shared PTE is visible to everyone) and return ok=false.
	ResolveSibling(core sim.CoreID, vpn sim.PageID, flags pagetable.PTE) (base sim.PageID, ok bool)

	// Map establishes a new mapping for core at the size-aligned base.
	Map(core sim.CoreID, base sim.PageID, pfn int64, flags pagetable.PTE) error

	// Unmap removes the mapping covering vpn from all tables. targets
	// is the set of cores whose TLBs must be invalidated: the precise
	// mapping set under PSPT, all cores under regular tables.
	Unmap(vpn sim.PageID) (base sim.PageID, pfn int64, targets []sim.CoreID, ok bool)

	// Touch simulates the MMU setting accessed (and dirty, for writes)
	// bits for core's view of vpn. written reports a write to a page
	// core maps, and frame is then the device frame backing vpn.
	Touch(core sim.CoreID, vpn sim.PageID, write bool) (frame sim.FrameID, written bool)

	// CoreMapCount returns the number of cores mapping base, or -1 when
	// the organization cannot know (regular tables).
	CoreMapCount(base sim.PageID) int

	// ScanAccessed tests and clears accessed bits for the mapping at
	// base, returning whether it was accessed, the cores whose TLBs
	// must be invalidated because a bit changed, and how many PTEs the
	// scan tested: the 16 sub-entries of a 64 kB group some table maps
	// (§4), else one.
	ScanAccessed(base sim.PageID) (accessed bool, targets []sim.CoreID, ptes int)

	// LockFor returns the virtual-time lock protecting updates to the
	// mapping at base: a single address-space lock for regular tables,
	// a per-page lock under PSPT.
	LockFor(base sim.PageID) *sim.Resource

	// Resident returns the number of live mappings.
	Resident() int

	// ForEachMapping visits every live mapping in ascending base order
	// (read-only; the invariant auditor and experiments iterate it).
	ForEachMapping(fn func(base sim.PageID, pfn int64))
}

// sharedAS is the regular-page-table organization. The one shared
// table is also the kernel's record of the resident mappings (the OS
// knows what is mapped; it just cannot know which cores cached the
// translation): every mapping has the run's page size, so the entry at
// a size-aligned base says whether that base is mapped and to which
// frame.
type sharedAS struct {
	cores    int
	size     sim.PageSize
	table    *pagetable.Table
	resident int
	lock     sim.Resource
	targets  []sim.CoreID // reusable all-cores slice
}

func newSharedAS(cores int, size sim.PageSize) *sharedAS {
	s := &sharedAS{
		cores: cores,
		size:  size,
		table: pagetable.New(),
	}
	s.targets = make([]sim.CoreID, cores)
	for i := range s.targets {
		s.targets[i] = sim.CoreID(i)
	}
	return s
}

func (s *sharedAS) Lookup(_ sim.CoreID, vpn sim.PageID) (pagetable.PTE, sim.PageSize, bool) {
	return s.table.Lookup(vpn)
}

func (s *sharedAS) ResolveSibling(sim.CoreID, sim.PageID, pagetable.PTE) (sim.PageID, bool) {
	return 0, false // shared PTEs are visible to every core; no minor faults
}

func (s *sharedAS) Map(_ sim.CoreID, base sim.PageID, pfn int64, flags pagetable.PTE) error {
	if _, _, ok := s.table.Lookup(base); ok {
		return fmt.Errorf("vm: double map of base %d", base)
	}
	switch s.size {
	case sim.Size4k:
		s.table.Set(base, pagetable.MakePTE(pfn, flags|pagetable.Present))
	case sim.Size64k:
		if err := s.table.Set64k(base, pfn, flags); err != nil {
			return err
		}
	case sim.Size2M:
		if err := s.table.Set2M(base, pagetable.MakePTE(pfn, flags)); err != nil {
			return err
		}
	}
	s.resident++
	return nil
}

// find returns the base and frame of the mapping covering vpn: the
// entry at the size-aligned base (a 64 kB group's first member carries
// the group's first frame).
func (s *sharedAS) find(vpn sim.PageID) (base sim.PageID, pfn int64, ok bool) {
	base = s.size.Align(vpn)
	e, _, ok := s.table.Lookup(base)
	return base, e.PFN(), ok
}

func (s *sharedAS) Unmap(vpn sim.PageID) (sim.PageID, int64, []sim.CoreID, bool) {
	base, pfn, ok := s.find(vpn)
	if !ok {
		return 0, 0, nil, false
	}
	switch s.size {
	case sim.Size64k:
		s.table.Clear64k(base)
	case sim.Size2M:
		s.table.Clear2M(base)
	default:
		s.table.Clear(base)
	}
	s.resident--
	// Centralized bookkeeping: the kernel cannot tell which cores have
	// the translation cached, so the shootdown must broadcast.
	return base, pfn, s.targets, true
}

func (s *sharedAS) Touch(_ sim.CoreID, vpn sim.PageID, write bool) (sim.FrameID, bool) {
	e, size, ok := s.table.Touch(vpn, write)
	if !ok || !write {
		return 0, false
	}
	if size == sim.Size2M {
		return sim.FrameID(e.PFN() + int64(vpn-sim.Size2M.Align(vpn))), true
	}
	return sim.FrameID(e.PFN()), true // 64k member PTEs carry the member frame
}

func (s *sharedAS) CoreMapCount(sim.PageID) int { return -1 }

func (s *sharedAS) ScanAccessed(base sim.PageID) (bool, []sim.CoreID, int) {
	b, _, ok := s.find(base)
	if !ok {
		return false, nil, 1
	}
	accessed, ptes := false, 1
	switch s.size {
	case sim.Size2M:
		s.table.Update2M(b, func(e pagetable.PTE) pagetable.PTE {
			if e.Has(pagetable.Accessed) {
				accessed = true
				return e.Without(pagetable.Accessed)
			}
			return e
		})
	case sim.Size64k:
		accessed, _ = s.table.Stat64k(b, true)
		ptes = sim.Span64k
	default:
		s.table.Update(b, func(e pagetable.PTE) pagetable.PTE {
			if e.Has(pagetable.Accessed) {
				accessed = true
				return e.Without(pagetable.Accessed)
			}
			return e
		})
	}
	if !accessed {
		return false, nil, ptes
	}
	return true, s.targets, ptes // cleared a bit: broadcast invalidation
}

func (s *sharedAS) LockFor(sim.PageID) *sim.Resource { return &s.lock }

func (s *sharedAS) Resident() int { return s.resident }

// ForEachMapping walks the shared table in ascending VPN order and
// reports a 64 kB group once, at its first member.
func (s *sharedAS) ForEachMapping(fn func(base sim.PageID, pfn int64)) {
	s.table.ForEachPresent(func(vpn sim.PageID, e pagetable.PTE, size sim.PageSize) {
		if size != sim.Size64k || sim.Size64k.Aligned(vpn) {
			fn(vpn, e.PFN())
		}
	})
}

// psptAS adapts pspt.PSPT to the addressSpace interface.
type psptAS struct {
	p       *pspt.PSPT
	scratch []sim.CoreID
}

func newPSPTAS(cores, pages int, size sim.PageSize, sc *dense.Scratch) *psptAS {
	return &psptAS{p: pspt.NewSized(cores, size, pages, sc)}
}

func (a *psptAS) Lookup(core sim.CoreID, vpn sim.PageID) (pagetable.PTE, sim.PageSize, bool) {
	return a.p.Lookup(core, vpn)
}

func (a *psptAS) ResolveSibling(core sim.CoreID, vpn sim.PageID, flags pagetable.PTE) (sim.PageID, bool) {
	m, ok, err := a.p.CopyFromSibling(core, vpn, flags)
	if err != nil || !ok {
		return 0, false
	}
	return m.Base, true
}

func (a *psptAS) Map(core sim.CoreID, base sim.PageID, pfn int64, flags pagetable.PTE) error {
	_, err := a.p.Map(core, base, pfn, flags)
	return err
}

func (a *psptAS) Unmap(vpn sim.PageID) (sim.PageID, int64, []sim.CoreID, bool) {
	m, _, ok := a.p.Unmap(vpn)
	if !ok {
		return 0, 0, nil, false
	}
	a.scratch = m.Cores.Cores(a.scratch[:0])
	return m.Base, m.PFN, a.scratch, true
}

func (a *psptAS) Touch(core sim.CoreID, vpn sim.PageID, write bool) (sim.FrameID, bool) {
	f, written := a.p.Touch(core, vpn, write)
	return sim.FrameID(f), written
}

func (a *psptAS) CoreMapCount(base sim.PageID) int { return a.p.CoreMapCount(base) }

func (a *psptAS) ScanAccessed(base sim.PageID) (bool, []sim.CoreID, int) {
	accessed, targets, ptes := a.p.ScanAccessed(base, a.scratch[:0])
	a.scratch = targets
	return accessed, targets, ptes
}

// LockFor returns the resident mapping's per-page lock.
func (a *psptAS) LockFor(base sim.PageID) *sim.Resource { return a.p.Lock(base) }

func (a *psptAS) Resident() int { return a.p.ResidentMappings() }

func (a *psptAS) ForEachMapping(fn func(base sim.PageID, pfn int64)) {
	a.p.ForEachMapping(func(m pspt.Mapping) { fn(m.Base, m.PFN) })
}

// PSPT exposes the underlying PSPT for experiments (Figure 6 reads the
// sharing histogram directly from the per-core tables).
func (a *psptAS) PSPT() *pspt.PSPT { return a.p }
