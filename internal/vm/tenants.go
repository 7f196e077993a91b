package vm

import (
	"fmt"

	"cmcp/internal/mem"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
)

// TenantConfig turns the Manager into a multi-tenant machine: Count
// address spaces of PagesPerTenant pages each share the one device
// frame pool. Tenant t owns the global pages
// [t·PagesPerTenant, (t+1)·PagesPerTenant), so the page→tenant map is
// pure arithmetic and the event loop needs no notion of tenancy at all.
type TenantConfig struct {
	// Count is the number of tenants.
	Count int
	// PagesPerTenant is each tenant's footprint in 4 kB pages.
	PagesPerTenant int
}

// tenantState is the Manager's multi-tenant extension: one policy
// instance per tenant (operating on tenant-local page IDs so its
// tables size to the tenant footprint, not the machine), the
// frame-ownership table, per-tenant counters, and the eviction
// arbiter's heap of frames held.
type tenantState struct {
	count int
	ppt   sim.PageID // pages per tenant
	pols  []policy.Policy
	fobs  []FaultObserver // per-tenant fault observers; nil entries allowed
	cmap  *mem.CoreMap
	ts    *stats.TenantSet
	heap  tenantHeap

	// nextTick is the earliest policy.Deadline over the tenants (0 for a
	// policy without one); the scanner lane skips the tenant loop until
	// then. One scalar suffices: every tenant is ticked on the same
	// scanner ticks, so same-kind policies share their deadlines.
	nextTick sim.Cycles
}

// newTenantState validates the tenant config and builds the per-tenant
// machinery. Multi-tenant runs are restricted to plain 4 kB mappings,
// so every frame has exactly one owning tenant in the ownership table.
func newTenantState(m *Manager, tc TenantConfig, factory PolicyFactory) (*tenantState, error) {
	if tc.Count <= 0 {
		return nil, fmt.Errorf("vm: %d tenants", tc.Count)
	}
	if tc.PagesPerTenant <= 0 {
		return nil, fmt.Errorf("vm: %d pages per tenant", tc.PagesPerTenant)
	}
	if m.cfg.PageSize != sim.Size4k {
		return nil, fmt.Errorf("vm: multi-tenant runs require 4 kB pages")
	}
	s := &tenantState{
		count: tc.Count,
		ppt:   sim.PageID(tc.PagesPerTenant),
		pols:  make([]policy.Policy, tc.Count),
		fobs:  make([]FaultObserver, tc.Count),
		cmap:  mem.NewCoreMap(m.cfg.Frames, tc.Count),
		ts:    m.run.EnableTenants(tc.Count),
	}
	for t := range s.pols {
		s.pols[t] = factory(tenantHost{m: m, base: sim.PageID(t) * s.ppt})
		if o, ok := s.pols[t].(FaultObserver); ok {
			s.fobs[t] = o
		}
	}
	s.heap.init(tc.Count)
	return s, nil
}

// tenantHost adapts the Manager's policy.Host to one tenant's local
// page IDs: the policy sees pages [0, PagesPerTenant), the machine
// sees them offset by the tenant's base.
type tenantHost struct {
	m    *Manager
	base sim.PageID
}

// CoreMapCount implements policy.Host.
func (h tenantHost) CoreMapCount(local sim.PageID) int {
	return h.m.CoreMapCount(h.base + local)
}

// ScanAccessed implements policy.Host.
func (h tenantHost) ScanAccessed(local sim.PageID) bool {
	return h.m.ScanAccessed(h.base + local)
}

// tick runs the tenants' periodic policy work. While now is before the
// earliest tenant deadline every Tick would be a no-op, so the loop is
// skipped; otherwise every tenant ticks in index order and the deadline
// is recomputed.
func (s *tenantState) tick(now sim.Cycles) {
	if now < s.nextTick {
		return
	}
	next := policy.Never
	for _, p := range s.pols {
		p.Tick(now)
		next = min(next, policy.NextTick(p))
	}
	s.nextTick = next
}

// tenantOf returns the tenant owning global page vpn.
func (s *tenantState) tenantOf(vpn sim.PageID) int { return int(vpn / s.ppt) }

// local converts a global page ID to the owning tenant's local ID.
func (s *tenantState) local(base sim.PageID) sim.PageID { return base % s.ppt }

// global converts tenant t's local page ID back to the global ID.
func (s *tenantState) global(t int, local sim.PageID) sim.PageID {
	return sim.PageID(t)*s.ppt + local
}

// pteSetup routes the policy notification to the owning tenant's
// instance, in its local ID space.
func (s *tenantState) pteSetup(base sim.PageID) {
	s.pols[s.tenantOf(base)].PTESetup(s.local(base))
}

// claim records tenant t taking span frames at f and updates its
// frame count in the arbiter's heap.
func (s *tenantState) claim(f sim.FrameID, span, t int) {
	s.cmap.Claim(f, span, t)
	s.heap.update(t, s.cmap.Used(t))
}

// release clears ownership of span frames at f, updates the previous
// owner's frame count in the arbiter's heap and returns that owner.
func (s *tenantState) release(f sim.FrameID, span int) int {
	t := s.cmap.Release(f, span)
	s.heap.update(t, s.cmap.Used(t))
	return t
}

// victimTenant returns the tenant the arbiter charges the next eviction
// to — the one holding the most frames, the lowest tenant ID on ties —
// or -1 when no tenant holds any frame.
func (s *tenantState) victimTenant() int {
	t := s.heap.top()
	if s.cmap.Used(t) == 0 {
		return -1
	}
	return t
}

// tenantHeap is a positioned binary max-heap over the frames each
// tenant holds, with a deterministic tie-break (lower tenant ID wins),
// so victim-tenant selection is O(log tenants) per eviction — the
// difference between a 10,000-tenant run finishing in seconds and in
// minutes — and identical across runs and engines.
type tenantHeap struct {
	score []int   // frames held per tenant
	order []int32 // heap array of tenant IDs
	pos   []int32 // tenant ID → index in order
}

// init sizes the heap for n tenants, each holding no frame.
func (h *tenantHeap) init(n int) {
	h.score = make([]int, n)
	h.order = make([]int32, n)
	h.pos = make([]int32, n)
	for i := 0; i < n; i++ {
		h.order[i] = int32(i)
		h.pos[i] = int32(i)
	}
}

// top returns the tenant holding the most frames (lowest ID on ties).
func (h *tenantHeap) top() int { return int(h.order[0]) }

// update sets tenant t's frame count and restores the heap property.
func (h *tenantHeap) update(t, score int) {
	if h.score[t] == score {
		return
	}
	h.score[t] = score
	i := int(h.pos[t])
	if !h.up(i) {
		h.down(i)
	}
}

// better reports whether tenant a outranks tenant b.
func (h *tenantHeap) better(a, b int32) bool {
	sa, sb := h.score[a], h.score[b]
	if sa != sb {
		return sa > sb
	}
	return a < b
}

func (h *tenantHeap) swap(i, j int) {
	h.order[i], h.order[j] = h.order[j], h.order[i]
	h.pos[h.order[i]] = int32(i)
	h.pos[h.order[j]] = int32(j)
}

func (h *tenantHeap) up(i int) bool {
	moved := false
	for i > 0 {
		p := (i - 1) / 2
		if !h.better(h.order[i], h.order[p]) {
			break
		}
		h.swap(i, p)
		i = p
		moved = true
	}
	return moved
}

func (h *tenantHeap) down(i int) {
	n := len(h.order)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && h.better(h.order[r], h.order[l]) {
			best = r
		}
		if !h.better(h.order[best], h.order[i]) {
			return
		}
		h.swap(i, best)
		i = best
	}
}

// allocFramesTenant is allocFrames under multi-tenancy: each
// allocation failure evicts from the tenant holding the most frames
// (lowest tenant ID on ties) until the allocation succeeds.
func (m *Manager) allocFramesTenant(core sim.CoreID, base sim.PageID, span int) (sim.FrameID, sim.Cycles, int64, error) {
	s := m.mt
	t := s.tenantOf(base)
	var work sim.Cycles
	var bytes int64
	for {
		f, err := m.dev.AllocRange(base, span)
		if err == nil {
			s.claim(f, span, t)
			return f, work, bytes, nil
		}
		vt := s.victimTenant()
		if vt < 0 {
			return 0, 0, 0, fmt.Errorf("%w (span %d, free %d)", ErrNoVictim, span, m.dev.FreeFrames())
		}
		w, b, evErr := m.evictFromTenant(core, vt, t)
		if evErr != nil {
			return 0, 0, 0, evErr
		}
		work += w
		bytes += b
	}
}

// evictFromTenant evicts tenant vt's policy-chosen victim on behalf of
// the faulting tenant, charging cross-tenant pressure when they differ.
func (m *Manager) evictFromTenant(core sim.CoreID, vt, faulting int) (sim.Cycles, int64, error) {
	local, ok := m.mt.pols[vt].Victim()
	if !ok {
		return 0, 0, fmt.Errorf("%w (tenant %d owns %d frames but its policy tracks no victim)",
			ErrNoVictim, vt, m.mt.cmap.Used(vt))
	}
	w, b, err := m.evict(core, m.mt.global(vt, local))
	if err != nil {
		return 0, 0, err
	}
	if vt != faulting {
		m.mt.ts.Add(faulting, stats.TenantEvictionsCaused, 1)
	}
	return w, b, nil
}

// TenantCount returns the number of tenants sharing the device, or 0 on
// single-tenant runs.
func (m *Manager) TenantCount() int {
	if m.mt == nil {
		return 0
	}
	return m.mt.count
}

// TenantOf returns the tenant owning global page vpn. Multi-tenant
// runs only.
func (m *Manager) TenantOf(vpn sim.PageID) int { return m.mt.tenantOf(vpn) }

// CoreMap returns the frame-ownership table, or nil on single-tenant
// runs. Read-only: the invariant auditor cross-checks it against the
// device's own owner records.
func (m *Manager) CoreMap() *mem.CoreMap {
	if m.mt == nil {
		return nil
	}
	return m.mt.cmap
}

// TenantNextTick returns the scanner deadline before which the tenant
// policies are not ticked, or 0 on single-tenant runs. Read-only: the
// invariant auditor checks it is never later than any tenant's
// policy.Deadline.
func (m *Manager) TenantNextTick() sim.Cycles {
	if m.mt == nil {
		return 0
	}
	return m.mt.nextTick
}

// TenantPolicy returns tenant t's policy instance (multi-tenant runs
// only). Its page IDs are tenant-local.
func (m *Manager) TenantPolicy(t int) policy.Policy { return m.mt.pols[t] }

// PolicyGroups returns CMCP's (FIFO, priority) group sizes, summed
// across tenants on multi-tenant runs. ok is false when the policy does
// not expose groups.
func (m *Manager) PolicyGroups() (fifo, prio int, ok bool) {
	pols := []policy.Policy{m.pol}
	if m.mt != nil {
		pols = m.mt.pols
	}
	for _, p := range pols {
		if g, isG := p.(interface{ Groups() (int, int) }); isG {
			f, pr := g.Groups()
			fifo += f
			prio += pr
			ok = true
		}
	}
	return fifo, prio, ok
}

// PolicyResident returns the resident-mapping count the policy layer
// tracks, summed across tenants on multi-tenant runs.
func (m *Manager) PolicyResident() int {
	if m.mt == nil {
		return m.pol.Resident()
	}
	sum := 0
	for _, p := range m.mt.pols {
		sum += p.Resident()
	}
	return sum
}
