package vm

import (
	"fmt"

	"cmcp/internal/mem"
	"cmcp/internal/obs"
	"cmcp/internal/pagetable"
	"cmcp/internal/policy"
	"cmcp/internal/pspt"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/tlb"
)

// FaultObserver is an optional extension a policy may implement to
// receive major-fault notifications (CMCP's dynamic-p tuner uses it).
type FaultObserver interface {
	NoteFault()
}

// Config parameterizes a Manager.
type Config struct {
	// Cores is the number of application cores.
	Cores int
	// Frames is the device memory size in 4 kB frames. This is the
	// memory-constraint knob of the experiments.
	Frames int
	// PageSize is the mapping granularity of the computation area:
	// every mapping of the run has this size.
	PageSize sim.PageSize
	// Tables selects regular shared page tables or PSPT.
	Tables TableKind
	// Cost is the cycle-cost model; zero value means defaults.
	Cost sim.CostModel
	// Verify attaches the content Checker: every store, page-in and
	// eviction is cross-checked, and a mismatch fails the run with
	// ErrCorruption (tests; small overhead).
	Verify bool
	// Probe, when non-nil, receives flight-recorder events from the
	// fault, eviction and scan paths. Disabled tracing costs one
	// nil-check branch per instrumented site.
	Probe *obs.Recorder
	// Hist enables latency/fan-out histograms on the run (fault service
	// time, eviction latency, shootdown RTT, lock waits, shootdown
	// fan-out). Like Probe, the disabled path costs one nil-check branch
	// per site; unlike Probe, Hist is plain data, so histogram-bearing
	// configs remain sweepable and journalable.
	Hist bool
	// Pages is an optional hint: the number of distinct page IDs the
	// workload touches. The page-indexed tables (TLB sets, page-table
	// bookkeeping, policy indexes) pre-size to it and avoid growth on
	// the hot path. Zero means "unknown"; tables grow on demand.
	Pages int
	// Tenants, when non-nil, splits the page space into that many
	// address spaces contending for the one frame pool: per-tenant
	// policy instances, a frame-ownership table, evictions charged to
	// the tenant holding the most frames, and per-tenant counters on
	// the run. Requires 4 kB pages.
	Tenants *TenantConfig
}

// PolicyFactory builds the replacement policy against the kernel-side
// Host interface (the Manager itself).
type PolicyFactory func(policy.Host) policy.Policy

// Manager is the simulated kernel's VM subsystem for one address space:
// it executes page touches, handles faults, runs evictions with TLB
// shootdowns, moves pages over the PCIe model, and exposes the
// policy.Host interface to the replacement policy.
type Manager struct {
	cfg  Config
	cost sim.CostModel
	as   addressSpace
	tlbs []tlb.TLB
	dev  *mem.Device
	pol  policy.Policy
	run  *stats.Run

	scanner  sim.CoreID
	debt     []sim.Cycles // pending IPI-interrupt cycles per app core
	scanCost sim.Cycles   // accumulated scanner-side cost since TakeScanCost

	allocLock sim.Resource
	dmaBus    sim.Resource // serializes PCIe wire time (latency overlaps)

	chk      *Checker // nil = Config.Verify off
	faultObs FaultObserver
	rec      *obs.Recorder  // nil = tracing disabled
	hs       *stats.HistSet // nil = histograms disabled

	mt *tenantState // nil = single-tenant machine
}

// NewManager builds the VM subsystem and its policy.
func NewManager(cfg Config, factory PolicyFactory) (*Manager, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("vm: %d cores", cfg.Cores)
	}
	if cfg.PageSize > sim.Size2M {
		return nil, fmt.Errorf("vm: unknown page size %v", cfg.PageSize)
	}
	if cfg.Frames < int(cfg.PageSize.Span()) {
		return nil, fmt.Errorf("vm: %d frames cannot hold one %v mapping", cfg.Frames, cfg.PageSize)
	}
	if cfg.Tables == PSPTKind && cfg.Cores > pspt.MaxCores {
		return nil, fmt.Errorf("vm: %d cores exceeds PSPT limit of %d", cfg.Cores, pspt.MaxCores)
	}
	if cfg.Cost == (sim.CostModel{}) {
		cfg.Cost = sim.DefaultCostModel()
	}
	m := &Manager{
		cfg:     cfg,
		cost:    cfg.Cost,
		dev:     mem.NewDevice(cfg.Frames),
		run:     stats.NewRun(cfg.Cores),
		scanner: sim.ScannerCore(cfg.Cores),
		debt:    make([]sim.Cycles, cfg.Cores),
		rec:     cfg.Probe,
	}
	if cfg.Hist {
		m.hs = m.run.EnableHists()
	}
	if cfg.Tables == PSPTKind {
		m.as = newPSPTAS(cfg.Cores, cfg.Pages, cfg.PageSize)
	} else {
		m.as = newSharedAS(cfg.Cores, cfg.PageSize)
	}
	m.tlbs = make([]tlb.TLB, cfg.Cores)
	for i := range m.tlbs {
		m.tlbs[i] = tlb.New(tlb.DefaultConfig(), cfg.Pages)
	}
	if cfg.Verify {
		m.chk = newChecker(cfg.Frames)
	}
	if cfg.Tenants != nil {
		mt, err := newTenantState(m, *cfg.Tenants, factory)
		if err != nil {
			return nil, err
		}
		m.mt = mt
		// Representative instance for Name()/inspection; every
		// behavioral call site routes through mt instead.
		m.pol = mt.pols[0]
	} else {
		m.pol = factory(m)
		if obs, ok := m.pol.(FaultObserver); ok {
			m.faultObs = obs
		}
	}
	return m, nil
}

// Run returns the measurement record.
func (m *Manager) Run() *stats.Run { return m.run }

// Policy returns the replacement policy instance.
func (m *Manager) Policy() policy.Policy { return m.pol }

// Resident returns the number of resident mappings.
func (m *Manager) Resident() int { return m.as.Resident() }

// Checker returns the content checker, or nil unless Config.Verify is
// set (tests inspect and tamper with write-back contents).
func (m *Manager) Checker() *Checker { return m.chk }

// Device returns the device memory (tests inspect frames).
func (m *Manager) Device() *mem.Device { return m.dev }

// SharingHistogram returns PSPT's pages-per-core-map-count histogram
// (Figure 6). ok is false under regular page tables.
func (m *Manager) SharingHistogram() ([]int, bool) {
	if a, ok := m.as.(*psptAS); ok {
		return a.PSPT().SharingHistogram(), true
	}
	return nil, false
}

// Cores returns the number of application cores.
func (m *Manager) Cores() int { return m.cfg.Cores }

// TLBFor exposes core's TLB for read-only inspection (the invariant
// auditor cross-checks cached translations against the page tables).
func (m *Manager) TLBFor(core sim.CoreID) *tlb.TLB { return &m.tlbs[core] }

// Lookup resolves vpn through core's page-table view. Bookkeeping only:
// no cost is charged and no simulated state changes.
func (m *Manager) Lookup(core sim.CoreID, vpn sim.PageID) (pagetable.PTE, sim.PageSize, bool) {
	return m.as.Lookup(core, vpn)
}

// PageSize returns the size of every mapping.
func (m *Manager) PageSize() sim.PageSize { return m.cfg.PageSize }

// ForEachMapping visits every resident mapping in ascending base order.
func (m *Manager) ForEachMapping(fn func(base sim.PageID, pfn int64)) {
	m.as.ForEachMapping(fn)
}

// PSPT returns the per-core table set, or ok=false under regular
// page tables.
func (m *Manager) PSPT() (*pspt.PSPT, bool) {
	if a, ok := m.as.(*psptAS); ok {
		return a.PSPT(), true
	}
	return nil, false
}

// TakeDebt drains and returns the pending interrupt cycles of core —
// the time the core will spend servicing invalidation IPIs it received
// since it last ran. The event engine adds it to the core's clock.
func (m *Manager) TakeDebt(core sim.CoreID) sim.Cycles {
	d := m.debt[core]
	m.debt[core] = 0
	return d
}

// TakeScanCost drains the accumulated scanner-side cost (PTE scans and
// shootdown initiation performed inside policy.Tick via ScanAccessed).
func (m *Manager) TakeScanCost() sim.Cycles {
	c := m.scanCost
	m.scanCost = 0
	return c
}

// Tick runs the policy's periodic machinery at virtual time now and
// returns the scanner-side cost it incurred.
func (m *Manager) Tick(now sim.Cycles) sim.Cycles {
	if m.rec != nil {
		m.rec.Advance(now)
	}
	if m.mt != nil {
		m.mt.tick(now)
	} else {
		m.pol.Tick(now)
	}
	cost := m.TakeScanCost()
	if m.rec != nil && cost > 0 {
		m.rec.Emit(now, m.scanner, obs.EvScanTick, 0, int64(cost))
	}
	return cost
}

// CoreMapCount implements policy.Host.
func (m *Manager) CoreMapCount(base sim.PageID) int {
	return m.as.CoreMapCount(base)
}

// ScanAccessed implements policy.Host: the access-bit statistics pass.
// The scan itself runs on the dedicated scanner pseudo-core, but every
// cleared bit forces invalidation IPIs into the application cores —
// the cost that Table 1 exposes and that CMCP avoids entirely.
//
// Cost attribution: the (small) initiator-side scan cost accumulates on
// the scanner lane even when a policy scans from the eviction path
// (CLOCK's second-chance sweep). The dominant costs — the target-side
// interrupts — are charged to the right cores either way, matching the
// paper's setup of dedicating hyperthreads to statistics collection.
func (m *Manager) ScanAccessed(base sim.PageID) bool {
	accessed, targets, ptes := m.as.ScanAccessed(base)
	m.scanCost += sim.Cycles(ptes) * m.cost.ScanPTE
	if accessed {
		m.run.Add(m.scanner, stats.ScanClears, 1)
	}
	remote := 0
	for _, tc := range targets {
		m.tlbs[tc].Invalidate(base)
		m.debt[tc] += m.cost.IPIInterrupt
		m.run.Add(tc, stats.RemoteTLBInvalidations, 1)
		remote++
	}
	if remote > 0 {
		m.run.Add(m.scanner, stats.IPIsSent, uint64(remote))
		// Asynchronous fire-and-forget IPIs: enqueue cost only.
		m.scanCost += m.cost.IPISend + sim.Cycles(remote)*m.cost.ScanIPIPerTarget
		if m.rec != nil {
			m.rec.EmitNow(m.scanner, obs.EvShootdown, base, int64(remote))
		}
		if m.hs != nil {
			m.hs.Record(stats.FanoutHist, uint64(remote))
		}
	}
	return accessed
}

// Access executes one page touch by core at virtual time now and
// returns the core's finishing time. This is the hardware+kernel
// access path: TLB lookup, page walk on miss, fault handling when the
// translation is absent, then the touch's amortized compute.
//
// A non-nil error means the simulated kernel's bookkeeping diverged
// (ErrNoVictim, ErrBadVictim, ErrMapFailed, ErrCorruption); the run is
// unrecoverable and the returned time is meaningless.
func (m *Manager) Access(core sim.CoreID, vpn sim.PageID, write bool, now sim.Cycles) (sim.Cycles, error) {
	m.run.Add(core, stats.Touches, 1)
	if m.mt != nil {
		m.mt.ts.Add(m.mt.tenantOf(vpn), stats.TenantTouches, 1)
	}
	t := now
	switch m.tlbs[core].Lookup(vpn) {
	case tlb.HitL1:
		// Translation cached: no kernel involvement.
	case tlb.HitL2:
		m.run.Add(core, stats.DTLBMisses, 1)
		m.run.Add(core, stats.TLBL2Hits, 1)
		t += m.cost.TLBL2Hit
	case tlb.Miss:
		m.run.Add(core, stats.DTLBMisses, 1)
		m.run.Add(core, stats.PageWalks, 1)
		t += m.cost.PageWalk
		if _, size, ok := m.as.Lookup(core, vpn); ok {
			m.tlbs[core].Insert(vpn, size)
		} else {
			var err error
			t, err = m.fault(core, vpn, t)
			if err != nil {
				return t, err
			}
		}
	}
	if err := m.touch(core, vpn, write); err != nil {
		return t, err
	}
	return t + m.cost.TouchCompute, nil
}

// touch has the MMU set the accessed (and, for a write, dirty) bits of
// core's translation of vpn and reports a store to the Checker (zero
// cost: included in TouchCompute).
func (m *Manager) touch(core sim.CoreID, vpn sim.PageID, write bool) error {
	m.as.Touch(core, vpn, write)
	if write && m.chk != nil {
		return m.chk.store(m.as, core, vpn)
	}
	return nil
}

// fault handles a translation fault by core for vpn starting at virtual
// time t and returns the completion time. When histograms are enabled it
// records the end-to-end service time — fault entry through the last
// lock release — so the distribution captures exactly what the faulting
// core experienced.
func (m *Manager) fault(core sim.CoreID, vpn sim.PageID, t sim.Cycles) (sim.Cycles, error) {
	if m.hs == nil && m.mt == nil {
		return m.faultService(core, vpn, t)
	}
	end, err := m.faultService(core, vpn, t)
	if err == nil {
		if m.hs != nil {
			m.hs.Record(stats.FaultServiceHist, uint64(end-t))
		}
		if m.mt != nil {
			// Per-tenant fault-service latency is always on for tenant
			// runs: it feeds the p99/fairness metrics, not Config.Hist.
			m.mt.ts.RecordFault(m.mt.tenantOf(vpn), uint64(end-t))
		}
	}
	return end, err
}

// faultService is the fault path proper; see fault.
func (m *Manager) faultService(core sim.CoreID, vpn sim.PageID, t sim.Cycles) (sim.Cycles, error) {
	t += m.cost.FaultEntry
	if m.rec != nil {
		m.rec.Advance(t)
	}

	// PSPT minor fault: some sibling core already maps the page; copy
	// its PTE under the per-page lock.
	if base, ok := m.as.ResolveSibling(core, vpn, pagetable.Writable); ok {
		m.run.Add(core, stats.MinorFaults, 1)
		if m.mt != nil {
			m.mt.ts.Add(m.mt.tenantOf(vpn), stats.TenantMinorFaults, 1)
		}
		t += m.cost.PSPTConsult
		t = m.acquire(m.as.LockFor(base), core, base, t, m.cost.LockBase)
		if m.rec != nil {
			m.rec.Emit(t, core, obs.EvMinorFault, base, 0)
		}
		if m.mt != nil {
			m.mt.pteSetup(base)
		} else {
			m.pol.PTESetup(base)
		}
		if _, size, ok := m.as.Lookup(core, vpn); ok {
			m.tlbs[core].Insert(vpn, size)
		}
		return t, nil
	}

	// Major fault: the page lives in host memory. The handling cost
	// has three serialization points: the short global allocator lock,
	// the PCIe wire time (transfers stream but share the link), and the
	// page-table lock for the PTE update — address-space wide under
	// regular tables, per-page under PSPT. What actually breaks regular
	// tables at scale is not lock hold time but the shootdown
	// broadcast inside service/evict: every eviction interrupts every
	// core, so the per-core interrupt load grows linearly with the core
	// count (and the initiator's IPI loop does too).
	m.run.Add(core, stats.PageFaults, 1)
	if m.rec != nil {
		m.rec.Emit(t, core, obs.EvFault, vpn, 0)
	}
	if m.mt != nil {
		vt := m.mt.tenantOf(vpn)
		m.mt.ts.Add(vt, stats.TenantFaults, 1)
		if o := m.mt.fobs[vt]; o != nil {
			o.NoteFault()
		}
	} else if m.faultObs != nil {
		m.faultObs.NoteFault()
	}
	base := m.cfg.PageSize.Align(vpn)

	t = m.acquire(&m.allocLock, core, base, t, m.cost.AllocLock)
	work, wire, err := m.service(core, vpn, base)
	if err != nil {
		return t, err
	}
	t += work
	if wire > 0 {
		t = m.acquire(&m.dmaBus, core, base, t, wire) + m.dmaLatencyFor(wire)
	}
	return m.acquire(m.as.LockFor(base), core, base, t, m.cost.LockBase), nil
}

// acquire has core take r at time t for hold cycles on base's behalf
// and returns the time the hold ends. Any queueing delay is charged to
// LockWaitCycles, traced as EvLockWait and recorded in LockWaitHist.
func (m *Manager) acquire(r *sim.Resource, core sim.CoreID, base sim.PageID, t, hold sim.Cycles) sim.Cycles {
	done, waited := r.Acquire(t, hold)
	m.run.Add(core, stats.LockWaitCycles, uint64(waited))
	if waited > 0 {
		if m.rec != nil {
			m.rec.Emit(done, core, obs.EvLockWait, base, int64(waited))
		}
		if m.hs != nil {
			m.hs.Record(stats.LockWaitHist, uint64(waited))
		}
	}
	return done
}

// dmaLatencyFor returns the fixed PCIe setup latency when any bytes
// moved (a combined write-back+page-in pays it once per direction; we
// approximate with a single latency per fault).
func (m *Manager) dmaLatencyFor(wire sim.Cycles) sim.Cycles {
	if wire == 0 {
		return 0
	}
	return m.cost.DMALatency
}

// service performs the state mutations of a major fault — allocate
// (evicting as needed), page-in, map, policy bookkeeping, TLB install —
// and returns the CPU work it cost plus the PCIe wire time consumed.
func (m *Manager) service(core sim.CoreID, vpn, base sim.PageID) (work, wire sim.Cycles, err error) {
	work = m.cost.FaultService
	size := m.cfg.PageSize
	span := int(size.Span())

	frame, evWork, bytes, err := m.allocFrames(core, base, span)
	if err != nil {
		return 0, 0, err
	}
	work += evWork
	if m.chk != nil {
		if err := m.chk.pageIn(base, frame, span); err != nil {
			return 0, 0, err
		}
	}
	m.run.Add(core, stats.BytesIn, uint64(size.Bytes()))
	bytes += size.Bytes()

	if mapErr := m.as.Map(core, base, int64(frame), pagetable.Writable); mapErr != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrMapFailed, mapErr)
	}
	if m.mt != nil {
		m.mt.pteSetup(base)
	} else {
		m.pol.PTESetup(base)
	}
	m.tlbs[core].Insert(vpn, size)

	wire = sim.Cycles(float64(bytes) / m.cost.DMABytesPerCycle)
	return work, wire, nil
}

// allocFrames obtains span naturally aligned contiguous frames,
// evicting victims until the allocation succeeds.
func (m *Manager) allocFrames(core sim.CoreID, base sim.PageID, span int) (sim.FrameID, sim.Cycles, int64, error) {
	if m.mt != nil {
		return m.allocFramesTenant(core, base, span)
	}
	var work sim.Cycles
	var bytes int64
	for {
		f, err := m.dev.AllocRange(base, span)
		if err == nil {
			return f, work, bytes, nil
		}
		vbase, ok := m.pol.Victim()
		if !ok {
			return 0, 0, 0, fmt.Errorf("%w (span %d, free %d)", ErrNoVictim, span, m.dev.FreeFrames())
		}
		w, b, evErr := m.evict(core, vbase)
		if evErr != nil {
			return 0, 0, 0, evErr
		}
		work += w
		bytes += b
	}
}

// evict unmaps the victim mapping at vbase, shoots down the TLBs of the
// affected cores, writes the mapping back when a removed PTE carried
// the dirty bit and frees the frames. It returns the evictor-side CPU
// work and the write-back byte count.
func (m *Manager) evict(core sim.CoreID, vbase sim.PageID) (sim.Cycles, int64, error) {
	base, pfn, dirty, targets, ok := m.as.Unmap(vbase)
	if !ok {
		return 0, 0, fmt.Errorf("%w: victim %d", ErrBadVictim, vbase)
	}
	m.run.Add(core, stats.Evictions, 1)

	var work sim.Cycles
	remote := 0
	for _, tc := range targets {
		if tc == core {
			m.tlbs[core].Invalidate(base)
			work += m.cost.InvlpgLocal
			continue
		}
		m.tlbs[tc].Invalidate(base)
		m.debt[tc] += m.cost.IPIInterrupt
		m.run.Add(tc, stats.RemoteTLBInvalidations, 1)
		// Delivery rides the bidirectional ring: distant targets cost
		// the initiating core more. rtt is this target's full ack round
		// trip, which is what the shootdown-RTT histogram records.
		//
		// Ring size: m.cfg.Cores counts the booked application cores
		// only. The statistics scanner is a hyperthread sharing a booked
		// core's ring stop (the paper dedicates hyperthreads, not
		// cores), so it adds no stop of its own and the active-core ring
		// size is the correct wrap modulus; see DESIGN.md §5.
		rtt := m.cost.IPIDeliveryCost(core, tc, m.cfg.Cores)
		work += rtt
		if m.hs != nil {
			m.hs.Record(stats.ShootdownHist, uint64(rtt))
		}
		remote++
	}
	if remote > 0 {
		m.run.Add(core, stats.IPIsSent, uint64(remote))
		work += m.cost.IPISend
		if m.hs != nil {
			m.hs.Record(stats.FanoutHist, uint64(remote))
		}
	}
	if m.rec != nil {
		m.rec.EmitNow(core, obs.EvEviction, base, int64(remote))
		if remote > 0 {
			m.rec.EmitNow(core, obs.EvShootdown, base, int64(remote))
		}
	}

	size := m.cfg.PageSize
	span := int(size.Span())
	if m.mt != nil {
		owner := m.mt.release(sim.FrameID(pfn), span)
		m.mt.ts.Add(owner, stats.TenantEvictions, 1)
	}
	if m.chk != nil {
		if err := m.chk.evict(base, pfn, span, dirty); err != nil {
			return 0, 0, err
		}
	}
	for i := 0; i < span; i++ {
		m.dev.Free(sim.FrameID(pfn + int64(i)))
	}
	var bytes int64
	if dirty {
		m.run.Add(core, stats.WriteBacks, 1)
		m.run.Add(core, stats.BytesOut, uint64(size.Bytes()))
		bytes = size.Bytes()
		if m.rec != nil {
			m.rec.EmitNow(core, obs.EvWriteBack, base, bytes)
		}
	}
	// Eviction latency: the evictor-side CPU work for this victim —
	// unmap and shootdown round trips. The wire time is excluded (it is
	// serialized on the DMA bus by the caller, shared with the page-in).
	if m.hs != nil {
		m.hs.Record(stats.EvictionHist, uint64(work))
	}
	return work, bytes, nil
}
