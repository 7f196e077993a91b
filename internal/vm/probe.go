package vm

import (
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/tlb"
)

// This file is the parallel engine's window into the Manager: the
// probe phase speculatively classifies touches without committing
// observable state, the commit phase retires whole runs of them in one
// call, and the invalidation observer lets the engine detect when a
// sweep-side TLB invalidation lands on a core with uncommitted
// speculative work (so that work can be rolled back and re-probed).
// See internal/machine/engine_parallel.go and DESIGN.md §13.

// SetInvalObserver registers fn to run immediately before each TLB
// invalidation is applied to a core (shootdowns from evictions, scan
// clears both funnel through it). Passing nil
// detaches. The serial engine never sets one; the disabled path costs
// one nil check per invalidation.
func (m *Manager) SetInvalObserver(fn func(core sim.CoreID, base sim.PageID)) {
	m.invalObs = fn
}

// Cost returns the resolved cycle-cost model (after defaulting).
func (m *Manager) Cost() sim.CostModel { return m.cost }

// ProbeAccess speculatively classifies one touch by core: it performs
// the real TLB lookup — including the L2→L1 promotion and, on a
// successful walk, the real Insert — so the core's TLB evolves exactly
// as the serial access path would, but commits no counters and no
// accessed/dirty bits. Callers must have attached an enabled
// tlb.Journal to the core's TLB so the mutations can be rolled back.
//
// On ok=true, extra is the touch's cost beyond TouchCompute, level the
// counter class (Miss means a successful page walk), and entryBase/
// entrySize identify the TLB entry the touch now relies on. ok=false
// means the translation is absent — the serial path would fault — and
// nothing at all was mutated.
//
// Concurrency: at most one prober per core, and no Manager mutation
// (commit, fault, tick) may run concurrently with any prober. Under
// that discipline probers only write core-local state (the core's own
// TLB) and only read the frozen page tables.
func (m *Manager) ProbeAccess(core sim.CoreID, vpn sim.PageID) (extra sim.Cycles, level tlb.HitLevel, entryBase sim.PageID, entrySize sim.PageSize, ok bool) {
	base, size, lv := m.tlbs[core].LookupInfo(vpn)
	switch lv {
	case tlb.HitL1:
		return 0, tlb.HitL1, base, size, true
	case tlb.HitL2:
		return m.cost.TLBL2Hit, tlb.HitL2, base, size, true
	}
	if _, sz, found := m.as.Lookup(core, vpn); found {
		m.tlbs[core].Insert(vpn, sz)
		return m.cost.PageWalk, tlb.Miss, sz.Align(vpn), sz, true
	}
	return 0, tlb.Miss, 0, 0, false
}

// CommitTouches retires count consecutive touches of vpn by core that
// a probe classified: the first at level (HitL2 pays the L2-hit
// counter pair, Miss means a successful page walk), the rest provably
// L1 hits. write reports whether any touch in the run wrote. The TLB
// mutations were already applied during the probe; this applies the
// counters and the MMU accessed/dirty bits.
//
// One touch covers the whole run: accessed/dirty bits are idempotent
// ORs, so folding n touches into one is exact. Under Config.Verify the
// Checker sees one store per committed run instead of one per write;
// it mixes that store into the page's expected content and its frame
// alike, so the two copies still agree (DESIGN.md §13).
//
// book=false skips the bookkeeping walk entirely: the caller asserts an
// earlier commit of the same speculative run already applied bits at
// least as strong (engine bursts track this; the bits cannot have
// weakened in between, because clearing or unmapping them shoots down
// the core's TLB entry first, which rolls the run back).
func (m *Manager) CommitTouches(core sim.CoreID, vpn sim.PageID, level tlb.HitLevel, count uint64, write, book bool) error {
	m.run.Add(core, stats.Touches, count)
	if m.mt != nil {
		m.mt.ts.Add(m.mt.tenantOf(vpn), stats.TenantTouches, count)
	}
	switch level {
	case tlb.HitL2:
		m.run.Add(core, stats.DTLBMisses, 1)
		m.run.Add(core, stats.TLBL2Hits, 1)
	case tlb.Miss:
		m.run.Add(core, stats.DTLBMisses, 1)
		m.run.Add(core, stats.PageWalks, 1)
	}
	if !book {
		return nil
	}
	return m.touch(core, vpn, write)
}

// JournalTLB attaches j to core's TLB (see tlb.Journal) and returns
// the TLB for Maintain calls.
func (m *Manager) JournalTLB(core sim.CoreID, j *tlb.Journal) *tlb.TLB {
	m.tlbs[core].SetJournal(j)
	return &m.tlbs[core]
}
