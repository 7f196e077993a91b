// Package check is the simulator's cross-module invariant auditor.
//
// The engine's central promise — same seed ⇒ bit-identical results —
// only holds while four independently maintained views of "what is
// resident" agree: the replacement policy's lists, the address-space
// page tables, the device frame array and the per-core TLBs. Each
// module keeps its own bookkeeping for speed; nothing at runtime forces
// them to match. A single missed decrement produces plausible-looking
// but wrong results that the golden tests may or may not pin.
//
// An Auditor cross-checks all of these against each other. Attach one
// to a run via machine.Config.Audit: the engine calls Note once per
// scheduled event and the Auditor runs a full audit every Every events
// plus once at the end of the run; any violation fails the run. Audits
// are read-only and do not perturb simulated state, so an audited run
// produces bit-identical results to an unaudited one.
package check

import (
	"errors"
	"fmt"
	"strings"

	"cmcp/internal/mem"
	"cmcp/internal/pagetable"
	"cmcp/internal/policy"
	"cmcp/internal/pspt"
	"cmcp/internal/sim"
	"cmcp/internal/vm"
)

// DefaultEvery is the audit period in engine events when Config.Every
// is zero. A full audit is O(pages + frames + cores·TLB), so a few
// thousand events between audits keeps audited test runs fast while
// still catching drift long before a run completes.
const DefaultEvery = 4096

// Config parameterizes an Auditor.
type Config struct {
	// Every is the audit period in engine events (0 = DefaultEvery).
	Every int
	// Limit caps the violations kept verbatim; further ones are only
	// counted (0 = 16). One genuine bug typically violates several
	// invariants at every subsequent audit, so a cap keeps Err short.
	Limit int
}

// Violation is one detected invariant breach.
type Violation struct {
	// Module names the bookkeeping layer at fault: "residency", "tlb",
	// "pspt", "policy" or "tenant".
	Module string
	// Detail says what disagreed with what.
	Detail string
}

func (v Violation) String() string { return v.Module + ": " + v.Detail }

// selfChecker is implemented by structures that can verify their own
// internals (core.CMCP's heap, via type assertion on the policy).
type selfChecker interface {
	CheckInvariants() error
}

// Auditor runs periodic cross-module audits. Not safe for concurrent
// use; attach one Auditor to at most one run at a time.
type Auditor struct {
	every      int
	limit      int
	events     int
	audits     int
	violations []Violation
	dropped    int // violations beyond limit, counted only
}

// New creates an Auditor.
func New(cfg Config) *Auditor {
	if cfg.Every <= 0 {
		cfg.Every = DefaultEvery
	}
	if cfg.Limit <= 0 {
		cfg.Limit = 16
	}
	return &Auditor{every: cfg.Every, limit: cfg.Limit}
}

// Note counts one engine event and audits m when the period elapses.
func (a *Auditor) Note(m *vm.Manager) {
	a.events++
	if a.events >= a.every {
		a.events = 0
		a.Audit(m)
	}
}

// Audits returns the number of full audits performed.
func (a *Auditor) Audits() int { return a.audits }

// Violations returns the recorded violations (up to Config.Limit).
func (a *Auditor) Violations() []Violation { return a.violations }

// Err returns nil when every audit passed, otherwise an error
// summarizing the recorded violations.
func (a *Auditor) Err() error {
	if len(a.violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d invariant violation(s) in %d audit(s)", len(a.violations)+a.dropped, a.audits)
	for _, v := range a.violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	if a.dropped > 0 {
		fmt.Fprintf(&b, "\n  ... and %d more", a.dropped)
	}
	return errors.New(b.String())
}

func (a *Auditor) report(module, format string, args ...any) {
	if len(a.violations) >= a.limit {
		a.dropped++
		return
	}
	a.violations = append(a.violations, Violation{Module: module, Detail: fmt.Sprintf(format, args...)})
}

// Audit cross-checks every bookkeeping layer of m once. The manager
// must be between operations (the engine calls it from the event loop,
// never mid-fault). It is read-only.
func (a *Auditor) Audit(m *vm.Manager) {
	a.audits++
	a.auditResidency(m)
	a.auditTLBs(m)
	a.auditPSPT(m)
	a.auditPolicy(m)
	a.auditTenants(m)
}

// auditResidency checks the first-order agreement: the mappings the
// address space reports, the frames the device has handed out, and the
// population the policy believes it manages must all describe the same
// resident set.
func (a *Auditor) auditResidency(m *vm.Manager) {
	dev := m.Device()
	mappings := 0
	var framesMapped int64
	size := m.PageSize()
	span := int64(size.Span())
	m.ForEachMapping(func(base sim.PageID, pfn int64) {
		mappings++
		framesMapped += span
		if !size.Aligned(base) {
			a.report("residency", "mapping base %d not %v-aligned", base, size)
			return
		}
		if pfn < 0 || pfn+span > int64(dev.NumFrames()) {
			a.report("residency", "mapping %d: pfn range [%d,%d) outside device of %d frames",
				base, pfn, pfn+span, dev.NumFrames())
			return
		}
		for i := int64(0); i < span; i++ {
			if owner := dev.Owner(sim.FrameID(pfn + i)); owner != base+sim.PageID(i) {
				a.report("residency", "frame %d owned by page %d, but mapping %d/%v expects page %d",
					pfn+i, owner, base, size, base+sim.PageID(i))
			}
		}
	})
	if inUse := int64(dev.NumFrames() - dev.FreeFrames()); inUse != framesMapped {
		a.report("residency", "device has %d frames in use, mappings cover %d", inUse, framesMapped)
	}
	if got := m.Resident(); got != mappings {
		a.report("residency", "address space reports %d resident, iteration found %d", got, mappings)
	}
	if got := m.PolicyResident(); got != mappings {
		a.report("residency", "policy %s tracks %d resident, address space holds %d",
			m.Policy().Name(), got, mappings)
	}
}

// auditTLBs checks that every cached translation still corresponds to a
// live translation of the same size in the owning core's table view —
// i.e. no shootdown was missed — and that each TLB's internal FIFO-set
// bookkeeping is consistent.
func (a *Auditor) auditTLBs(m *vm.Manager) {
	for c := 0; c < m.Cores(); c++ {
		core := sim.CoreID(c)
		t := m.TLBFor(core)
		if err := t.CheckInvariants(); err != nil {
			a.report("tlb", "core %d: %v", c, err)
		}
		t.ForEachEntry(func(base sim.PageID, size sim.PageSize, level int) {
			_, sz, ok := m.Lookup(core, base)
			if !ok {
				a.report("tlb", "core %d caches %v translation for page %d (L%d) with no live mapping",
					c, size, base, level)
				return
			}
			if sz != size {
				a.report("tlb", "core %d caches %v translation for page %d (L%d), table says %v",
					c, size, base, level, sz)
			}
		})
	}
}

// auditPSPT checks PSPT's derived metadata — the per-mapping core set
// and its count, which CMCP's priorities are computed from, and the
// accessed/dirty summary the hit path trusts instead of walking —
// against the actual per-core PTE population: CoreMapCount must equal
// the number of cores whose table actually resolves the base, each
// per-core PTE must agree on size and frame, each summary bit must
// equal the PTE bit it mirrors, and every resident record must have at
// least one mapping core (the fault path creates a record by mapping
// it, and eviction removes it whole).
func (a *Auditor) auditPSPT(m *vm.Manager) {
	p, ok := m.PSPT()
	if !ok {
		return
	}
	mappings := 0
	p.ForEachMapping(func(mp pspt.Mapping) {
		mappings++
		populated := 0
		for c := 0; c < p.Cores(); c++ {
			core := sim.CoreID(c)
			pte, size, ok := p.Lookup(core, mp.Base)
			if ok {
				populated++
			}
			if ok != mp.Cores.Has(core) {
				a.report("pspt", "page %d: core set says core %d mapped=%v, table lookup says %v",
					mp.Base, c, mp.Cores.Has(core), ok)
				continue
			}
			if !ok {
				continue
			}
			if size != p.PageSize() {
				a.report("pspt", "page %d: core %d PTE size %v, mapping size %v", mp.Base, c, size, p.PageSize())
			}
			if got := pte.PFN(); got != mp.PFN {
				a.report("pspt", "page %d: core %d PTE pfn %d, mapping pfn %d", mp.Base, c, got, mp.PFN)
			}
		}
		if count := p.CoreMapCount(mp.Base); count != populated {
			a.report("pspt", "page %d: CoreMapCount=%d, %d per-core tables resolve it",
				mp.Base, count, populated)
		}
		if mp.Cores.Count() == 0 {
			a.report("pspt", "page %d: resident record has no mapping core", mp.Base)
		}
		if p.PageSize() != sim.Size2M {
			a.auditSummary(p, mp)
		}
	})
	if got := p.ResidentMappings(); got != mappings {
		a.report("pspt", "ResidentMappings=%d, iteration found %d", got, mappings)
	}
}

// auditSummary checks the accessed/dirty summary of one 4 kB or 64 kB
// mapping: on every core, each member page's summary bits must equal
// its PTE's accessed and dirty bits, and be clear where the core holds
// no PTE. A stale set bit would let Touch skip the walk for a page the
// core does not map; a stale clear bit only costs a walk, but would let
// a scan skip a core whose accessed bit is set.
func (a *Auditor) auditSummary(p *pspt.PSPT, mp pspt.Mapping) {
	for c := 0; c < p.Cores(); c++ {
		core := sim.CoreID(c)
		for vpn := mp.Base; vpn < mp.Base+p.PageSize().Span(); vpn++ {
			acc, dirty, tracked := p.Summary(core, vpn)
			if !tracked {
				return
			}
			pte, _, ok := p.Lookup(core, vpn)
			if wantA, wantD := ok && pte.Has(pagetable.Accessed), ok && pte.Has(pagetable.Dirty); acc != wantA || dirty != wantD {
				a.report("pspt", "page %d: core %d summary accessed=%v dirty=%v, PTE accessed=%v dirty=%v",
					vpn, c, acc, dirty, wantA, wantD)
			}
		}
	}
}

// auditPolicy runs the policy's own structural self-check when it has
// one (CMCP verifies its heap and position index). Multi-tenant runs
// self-check every tenant's instance.
func (a *Auditor) auditPolicy(m *vm.Manager) {
	if n := m.TenantCount(); n > 0 {
		for t := 0; t < n; t++ {
			if sc, ok := m.TenantPolicy(t).(selfChecker); ok {
				if err := sc.CheckInvariants(); err != nil {
					a.report("policy", "tenant %d: %v", t, err)
				}
			}
		}
		return
	}
	if sc, ok := m.Policy().(selfChecker); ok {
		if err := sc.CheckInvariants(); err != nil {
			a.report("policy", "%v", err)
		}
	}
}

// auditTenants cross-checks the multi-tenant frame-ownership table
// against the device and the per-tenant policies: every in-use frame
// must be owned by exactly the tenant whose page occupies it (no frame
// owned by two tenants — ownership is single-valued and must match the
// device), free frames must be unowned, the per-tenant
// frame totals must sum to the device's frames in use, each tenant's
// policy residency must equal its actual mapping count, and the
// scanner's tenant deadline must not be later than any tenant policy's
// own (policy.Deadline, 0 without one) — else a due tick is skipped.
func (a *Auditor) auditTenants(m *vm.Manager) {
	n := m.TenantCount()
	if n == 0 {
		return
	}
	cm := m.CoreMap()
	dev := m.Device()
	used := make([]int, n)
	for f := 0; f < dev.NumFrames(); f++ {
		frame := sim.FrameID(f)
		owner := cm.Owner(frame)
		page := dev.Owner(frame)
		if page < 0 {
			if owner != mem.NoTenant {
				a.report("tenant", "frame %d is free but the coremap says tenant %d owns it",
					f, owner)
			}
			continue
		}
		want := m.TenantOf(page)
		if owner == mem.NoTenant {
			a.report("tenant", "frame %d holds tenant %d's page %d but the coremap says it is unowned",
				f, want, page)
			continue
		}
		if owner != want {
			a.report("tenant", "frame %d holds tenant %d's page %d but the coremap says tenant %d owns it",
				f, want, page, owner)
		}
		if owner >= 0 && owner < n {
			used[owner]++
		}
	}
	sum := 0
	for t := 0; t < n; t++ {
		if got := cm.Used(t); got != used[t] {
			a.report("tenant", "tenant %d: coremap counts %d frames, device scan found %d", t, got, used[t])
		}
		sum += cm.Used(t)
	}
	if inUse := dev.NumFrames() - dev.FreeFrames(); sum != inUse {
		a.report("tenant", "per-tenant frame counts sum to %d, device has %d frames in use", sum, inUse)
	}
	perTenant := make([]int, n)
	m.ForEachMapping(func(base sim.PageID, _ int64) {
		if t := m.TenantOf(base); t >= 0 && t < n {
			perTenant[t]++
		}
	})
	for t := 0; t < n; t++ {
		if got := m.TenantPolicy(t).Resident(); got != perTenant[t] {
			a.report("tenant", "tenant %d: policy tracks %d resident, address space holds %d",
				t, got, perTenant[t])
		}
		if next, due := m.TenantNextTick(), policy.NextTick(m.TenantPolicy(t)); next > due {
			a.report("tenant", "tenant %d: policy is due at cycle %d but the scanner skips tenants until %d",
				t, due, next)
		}
	}
}
