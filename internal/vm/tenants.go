package vm

import (
	"fmt"
	"math"

	"cmcp/internal/mem"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
)

// TenantConfig turns the Manager into a multi-tenant machine: Count
// address spaces of PagesPerTenant pages each share the one device
// frame pool. Tenant t owns the global pages
// [t·PagesPerTenant, (t+1)·PagesPerTenant), so the page→tenant map is
// pure arithmetic and the engines need no notion of tenancy at all —
// which is also why multi-tenant runs are bit-identical across the
// serial and epoch-parallel engines by construction.
type TenantConfig struct {
	// Count is the number of tenants.
	Count int
	// PagesPerTenant is each tenant's footprint in 4 kB pages.
	PagesPerTenant int
	// Weights are the tenants' shares of the frame pool; nil means
	// uniform, otherwise length must equal Count.
	Weights []float64
	// HardPartition carves fixed per-tenant frame quotas from the
	// weights. Off, the weights steer proportional eviction pressure:
	// a fault evicts from whichever tenant holds the most frames per
	// unit of weight.
	HardPartition bool
}

// tenantState is the Manager's multi-tenant extension: one policy
// instance per tenant (operating on tenant-local page IDs so its
// tables size to the tenant footprint, not the machine), the
// frame-ownership table, per-tenant counters, and the eviction
// arbiter's score heap.
type tenantState struct {
	count int
	ppt   sim.PageID // pages per tenant
	pols  []policy.Policy
	fobs  []FaultObserver // per-tenant fault observers; nil entries allowed
	cmap  *mem.CoreMap
	ts    *stats.TenantSet
	quota []int     // hard-partition frame quotas; nil under weighted pressure
	invw  []float64 // 1/weight per tenant; nil under hard partition
	heap  tenantHeap

	// nextTick is the earliest policy.Deadline over the tenants (0 for a
	// policy without one); the scanner lane skips the tenant loop until
	// then. One scalar suffices: every tenant is ticked on the same
	// scanner ticks, so same-kind policies share their deadlines.
	nextTick sim.Cycles
}

// newTenantState validates the tenant config and builds the per-tenant
// machinery. Multi-tenant runs are restricted to plain 4 kB mappings:
// span-1 frames keep the ownership table and the partition arithmetic
// exact (a 64 kB or 2 MB mapping could straddle a quota boundary).
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
	if len(tc.Weights) != 0 && len(tc.Weights) != tc.Count {
		return nil, fmt.Errorf("vm: %d tenant weights for %d tenants", len(tc.Weights), tc.Count)
	}
	for i, w := range tc.Weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("vm: tenant weight[%d] = %g must be positive and finite", i, w)
		}
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
	if tc.HardPartition {
		q, err := partitionQuotas(m.cfg.Frames, tc.Count, tc.Weights)
		if err != nil {
			return nil, err
		}
		s.quota = q
	} else {
		s.invw = make([]float64, tc.Count)
		for t := range s.invw {
			w := 1.0
			if len(tc.Weights) > 0 {
				w = tc.Weights[t]
			}
			s.invw[t] = 1 / w
		}
	}
	s.heap.init(tc.Count)
	for t := 0; t < tc.Count; t++ {
		s.refresh(t)
	}
	return s, nil
}

// partitionQuotas splits frames into per-tenant quotas proportional to
// the weights (uniform when nil), largest remainder first, every tenant
// at least one frame. Deterministic: ties go to the lowest tenant ID.
func partitionQuotas(frames, n int, weights []float64) ([]int, error) {
	if frames < n {
		return nil, fmt.Errorf("vm: hard partition needs one frame per tenant (%d frames, %d tenants)", frames, n)
	}
	w := func(t int) float64 {
		if len(weights) > 0 {
			return weights[t]
		}
		return 1
	}
	var total float64
	for t := 0; t < n; t++ {
		total += w(t)
	}
	q := make([]int, n)
	rem := make([]float64, n)
	assigned := 0
	for t := 0; t < n; t++ {
		exact := float64(frames) * w(t) / total
		q[t] = int(exact)
		if q[t] < 1 {
			q[t] = 1
		}
		rem[t] = exact - float64(q[t])
		assigned += q[t]
	}
	for assigned < frames {
		best := 0
		for t := 1; t < n; t++ {
			if rem[t] > rem[best] {
				best = t
			}
		}
		q[best]++
		rem[best]--
		assigned++
	}
	// The one-frame floor can overshoot when many tiny weights round up;
	// claw back from the largest quotas (never below the floor).
	for assigned > frames {
		best := -1
		for t := 0; t < n; t++ {
			if q[t] > 1 && (best < 0 || q[t] > q[best]) {
				best = t
			}
		}
		q[best]--
		assigned--
	}
	return q, nil
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

// claim records tenant t taking span frames at f and refreshes its
// arbitration score.
func (s *tenantState) claim(f sim.FrameID, span, t int) {
	s.cmap.Claim(f, span, t)
	s.refresh(t)
}

// release clears ownership of span frames at f, refreshes the previous
// owner's score and returns it.
func (s *tenantState) release(f sim.FrameID, span int) int {
	t := s.cmap.Release(f, span)
	s.refresh(t)
	return t
}

// refresh recomputes tenant t's eviction-pressure score. Weighted mode
// scores frames held per unit of weight; hard partition scores overage
// beyond the quota. Tenants holding nothing score -Inf so the arbiter
// never picks them.
func (s *tenantState) refresh(t int) {
	u := s.cmap.Used(t)
	score := math.Inf(-1)
	if u > 0 {
		if s.quota != nil {
			score = float64(u - s.quota[t])
		} else {
			score = float64(u) * s.invw[t]
		}
	}
	s.heap.update(t, score)
}

// victimTenant returns the tenant the arbiter charges the next eviction
// to, or -1 when no tenant holds any frame.
func (s *tenantState) victimTenant() int {
	t := s.heap.top()
	if s.cmap.Used(t) == 0 {
		return -1
	}
	return t
}

// tenantHeap is a positioned binary max-heap over tenant scores with a
// deterministic tie-break (lower tenant ID wins), so victim-tenant
// selection is O(log tenants) per eviction — the difference between a
// 10,000-tenant run finishing in seconds and in minutes — and identical
// across runs and engines.
type tenantHeap struct {
	score []float64
	order []int32 // heap array of tenant IDs
	pos   []int32 // tenant ID → index in order
}

func (h *tenantHeap) init(n int) {
	h.score = make([]float64, n)
	h.order = make([]int32, n)
	h.pos = make([]int32, n)
	for i := 0; i < n; i++ {
		h.score[i] = math.Inf(-1)
		h.order[i] = int32(i)
		h.pos[i] = int32(i)
	}
}

// top returns the highest-scoring tenant (lowest ID on ties).
func (h *tenantHeap) top() int { return int(h.order[0]) }

// update sets tenant t's score and restores the heap property.
func (h *tenantHeap) update(t int, score float64) {
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

// allocFramesTenant is allocFrames under multi-tenancy: the faulting
// tenant first recycles its own frames when a hard partition caps it,
// then allocation failures evict from whichever tenant the arbiter
// scores highest — most frames per unit weight, or deepest over quota.
func (m *Manager) allocFramesTenant(core sim.CoreID, base sim.PageID, span int) (sim.FrameID, sim.Cycles, int64, error) {
	s := m.mt
	t := s.tenantOf(base)
	var work sim.Cycles
	var bytes int64
	for s.quota != nil && s.cmap.Used(t)+span > s.quota[t] {
		w, b, err := m.evictFromTenant(core, t, t)
		if err != nil {
			return 0, 0, 0, err
		}
		work += w
		bytes += b
	}
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
