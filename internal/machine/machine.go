// Package machine is the discrete-event engine of the CMCP simulator.
// It builds a many-core machine (cores with TLBs, device memory, host
// backing store, page tables, a replacement policy), feeds each core
// its workload access stream, and advances per-core virtual clocks in
// deterministic (clock, coreID) order until every stream is drained.
//
// One Simulate call is single-threaded and bit-reproducible; parameter
// sweeps parallelize across independent Simulate calls (RunMany).
package machine

import (
	"errors"
	"fmt"
	"math"

	"cmcp/internal/check"
	"cmcp/internal/core"
	"cmcp/internal/dense"
	"cmcp/internal/obs"
	"cmcp/internal/pagetable"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

// PolicyKind names a replacement policy.
type PolicyKind uint8

const (
	// FIFO is the baseline first-in first-out policy.
	FIFO PolicyKind = iota
	// LRU is the Linux-style active/inactive approximation.
	LRU
	// CMCP is the paper's core-map count based priority policy.
	CMCP
	// CLOCK is the second-chance algorithm.
	CLOCK
	// LFU is the sampled least-frequently-used approximation.
	LFU
	// Random evicts uniformly at random.
	Random
)

// String returns the policy display name.
func (k PolicyKind) String() string {
	switch k {
	case FIFO:
		return "FIFO"
	case LRU:
		return "LRU"
	case CMCP:
		return "CMCP"
	case CLOCK:
		return "CLOCK"
	case LFU:
		return "LFU"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("PolicyKind(%d)", uint8(k))
	}
}

// PolicySpec selects and parameterizes the replacement policy.
type PolicySpec struct {
	// Factory, when non-nil, overrides Kind entirely: the simulation
	// uses the returned policy. This is the extension point for
	// user-defined replacement policies.
	Factory vm.PolicyFactory
	Kind    PolicyKind
	// P is CMCP's prioritized-pages ratio; negative means DefaultP.
	P float64
	// DynamicP attaches CMCP's fault-feedback tuner (future work §5.6).
	DynamicP bool
	// ScanPeriod overrides the LRU/LFU statistics timer (0 = default).
	ScanPeriod sim.Cycles
	// ScanBatch overrides pages scanned per timer tick (0 = adaptive:
	// the whole resident set, the high-pressure Linux regime). A
	// negative batch is an error.
	ScanBatch int
}

// Config describes one simulation run.
type Config struct {
	// Cores is the number of application cores (1..60 on KNC).
	Cores int
	// Workload is the access-stream spec. Mutually exclusive with
	// Tenants.
	Workload workload.Spec
	// Tenants, when non-nil, runs a multi-tenant machine instead of a
	// single workload: Tenants.Tenants address spaces driven by the
	// deterministic Zipfian serving workload, per-tenant policy
	// instances over the shared frame pool, evictions charged to the
	// tenant holding the most frames, and per-tenant counters/fault-latency
	// histograms on the Run (stats.TenantSet). Requires 4 kB pages.
	// Plain data: safe to share across concurrent runs and to journal in
	// sweeps. Nil leaves single-tenant behavior bit-identical to before
	// the field existed.
	Tenants *workload.TenantSpec
	// MemoryRatio sets device memory as a fraction of the workload
	// footprint, in [0, 1] (1.0 = everything fits, no data movement).
	// The zero value means 1. The device always holds at least one
	// mapping. A ratio outside [0, 1] is an error.
	MemoryRatio float64
	// PageSize is the computation-area mapping granularity: every
	// mapping of the run has this size.
	PageSize sim.PageSize
	// Tables picks regular shared page tables or PSPT.
	Tables vm.TableKind
	// Policy selects the replacement policy.
	Policy PolicySpec
	// Seed drives all randomness (workload streams, Random policy).
	Seed uint64
	// Cost overrides the cycle-cost model (zero value = defaults). A
	// non-zero model must carry a positive, finite DMABytesPerCycle.
	Cost sim.CostModel
	// Verify attaches the vm.Checker page-content oracle; a content
	// mismatch fails the run with vm.ErrCorruption.
	Verify bool
	// Hist attaches latency/fan-out histograms to the run (see
	// internal/hist and stats.HistID): fault service time, eviction
	// latency, shootdown ack RTT, lock waits and shootdown fan-out.
	// Disabled, the hot paths pay one nil-check branch per site.
	// Histograms never alter simulated state or costs, so a Hist run is
	// bit-identical to a non-Hist run in every counter and finish time.
	// Plain data (unlike Probe/Audit): one Config is safe to reuse
	// across concurrent RunMany runs, and sweeps may journal it.
	// Histograms cover the measured phase only — distributions are
	// reset at the warm-up barrier, because unlike counters a prefix
	// distribution cannot be subtracted out.
	Hist bool
	// Probe attaches a flight recorder / sampler to the run (see
	// internal/obs). nil disables tracing; the hot paths then pay one
	// nil-check branch per instrumented site. A Recorder serves one
	// run at a time — never share one across concurrent RunMany calls.
	Probe *obs.Recorder
	// Audit attaches the cross-module invariant auditor (see
	// internal/check): every few thousand engine events it cross-checks
	// policy residency, device frames, page tables and TLBs against
	// each other, and any violation fails the run. nil disables
	// auditing. Like Probe, an Auditor serves one run at a time — never
	// share one across concurrent RunMany calls.
	Audit *check.Auditor
	// Engine is accepted for compatibility only: SerialEngine and
	// ParallelEngine both run the one event loop, and any other value
	// is an error. See EngineKind.
	Engine EngineKind
}

// EngineKind names an event-loop implementation. Only one exists: the
// two names below both select it, so their Results are identical. The
// names stay because the benchmark module still sets ParallelEngine
// for its machine.parallel_speedup metric; ROADMAP item 12 deletes the
// names together with that metric.
type EngineKind uint8

const (
	// SerialEngine selects the event loop (the zero value).
	SerialEngine EngineKind = iota
	// ParallelEngine selects the same event loop as SerialEngine.
	ParallelEngine
)

// String returns the engine name.
func (k EngineKind) String() string {
	switch k {
	case SerialEngine:
		return "serial"
	case ParallelEngine:
		return "parallel"
	default:
		return fmt.Sprintf("EngineKind(%d)", uint8(k))
	}
}

// Result is one run's outcome.
type Result struct {
	Config  Config
	Run     *stats.Run
	Runtime sim.Cycles
	// Frames is the device size the MemoryRatio resolved to.
	Frames int
	// TotalPages is the workload footprint actually laid out.
	TotalPages int
	// Sharing is the final PSPT pages-per-core-map-count histogram
	// (nil under regular page tables).
	Sharing []int
	// Resident is the number of resident mappings at the end of the run.
	Resident int
	// PolicyName is the resolved policy's display name.
	PolicyName string
}

// Frames computes the device size in 4 kB frames for a footprint of
// pages at the given ratio and page size: mappings are span-aligned, so
// the full footprint rounds up to whole mappings, and the constrained
// size rounds to whole mappings too.
func Frames(pages int, ratio float64, size sim.PageSize) int {
	span := int(size.Span())
	mappings := (pages + span - 1) / span
	full := mappings * span
	f := int(ratio*float64(full) + 0.5)
	f = (f + span - 1) / span * span
	if f < span {
		f = span
	}
	if f > full {
		f = full
	}
	return f
}

// buildPolicy resolves the policy factory for a run. pages and sc size
// the policy's page-indexed bookkeeping (see vm.Config.Pages/Scratch).
func buildPolicy(cfg Config, frames, pages int, sc *dense.Scratch) (vm.PolicyFactory, error) {
	if cfg.Policy.Factory != nil {
		return cfg.Policy.Factory, nil
	}
	if math.IsNaN(cfg.Policy.P) || math.IsInf(cfg.Policy.P, 0) {
		return nil, fmt.Errorf("machine: PolicySpec.P %v is not a finite number", cfg.Policy.P)
	}
	if cfg.Policy.ScanBatch < 0 {
		return nil, fmt.Errorf("machine: PolicySpec.ScanBatch %d is negative", cfg.Policy.ScanBatch)
	}
	span := int(cfg.PageSize.Span())
	capacity := frames / span
	switch cfg.Policy.Kind {
	case FIFO:
		return func(policy.Host) policy.Policy { return policy.NewFIFOIn(sc, pages) }, nil
	case LRU:
		return func(h policy.Host) policy.Policy {
			// The paper's kernel scans every 10 ms over runs of minutes.
			// The simulated runs compress time ~10^3x (footprints are
			// scaled down), so the default scan period compresses too,
			// preserving the scans-per-page-residency ratio that drives
			// Table 1's invalidation counts.
			period := cfg.Policy.ScanPeriod
			if period == 0 {
				period = 50_000
			}
			opts := []policy.LRUOption{policy.WithScanPeriod(period), policy.WithLRUArena(sc, pages)}
			batch := cfg.Policy.ScanBatch
			if batch == 0 {
				batch = capacity // high-pressure regime: scan everything
			}
			opts = append(opts, policy.WithScanBatch(batch))
			return policy.NewLRU(h, opts...)
		}, nil
	case CMCP:
		if cfg.Policy.P > 1 {
			return nil, fmt.Errorf("machine: CMCP p=%v out of [0,1]", cfg.Policy.P)
		}
		return func(h policy.Host) policy.Policy {
			opts := []core.Option{core.WithArena(sc, pages)}
			if cfg.Policy.P >= 0 {
				opts = append(opts, core.WithP(cfg.Policy.P))
			}
			if cfg.Policy.DynamicP {
				opts = append(opts, core.WithTuner(core.NewTuner(core.TunerConfig{})))
			}
			if cfg.Probe != nil {
				opts = append(opts, core.WithObserver(cfg.Probe))
			}
			return core.New(h, capacity, opts...)
		}, nil
	case CLOCK:
		return func(h policy.Host) policy.Policy { return policy.NewClockIn(h, sc, pages) }, nil
	case LFU:
		return func(h policy.Host) policy.Policy {
			period := cfg.Policy.ScanPeriod
			if period == 0 {
				period = 50_000 // compressed like LRU's; see above
			}
			opts := []policy.LFUOption{policy.WithLFUScanPeriod(period), policy.WithLFUArena(sc, pages)}
			batch := cfg.Policy.ScanBatch
			if batch == 0 {
				batch = capacity
			}
			opts = append(opts, policy.WithLFUScanBatch(batch))
			return policy.NewLFU(h, opts...)
		}, nil
	case Random:
		return func(policy.Host) policy.Policy { return policy.NewRandomIn(cfg.Seed^0xabcdef, sc, pages) }, nil
	default:
		return nil, fmt.Errorf("machine: unknown policy kind %v", cfg.Policy.Kind)
	}
}

// eventKey packs one schedulable entity — an application core or the
// scanner pseudo-core — into a single uint64: the virtual clock in the
// high 48 bits, the core ID in the low 16. Unsigned comparison of keys
// IS the scheduler's deterministic (clock, id) order, so the scheduler
// works on plain integers: one-instruction compares, 8-byte moves, no
// GC write barriers. IDs are unique, making the order total with no
// equal elements; every correct priority queue yields the same
// sequence regardless of its internal layout, so bit-reproducibility
// does not depend on the queue's shape. The packing bounds one run at
// 2^48 cycles (~3 days of simulated 1 GHz time; real runs are under
// 2^27) and 2^16-1 schedulable entities; Simulate rejects configs
// beyond the latter.
type eventKey uint64

const eventIDBits = 16

// maxEngineCores is the schedulable-entity limit imposed by the packed
// event key: all application cores plus the scanner must fit in 16 bits.
const maxEngineCores = 1<<eventIDBits - 2

// tickInterval is the granularity at which the scanner pseudo-core
// runs policy periodic work: half the compressed default scan period
// (≈24 µs at KNC's 1.053 GHz), so timer-driven policies never miss a
// deadline by more than half a period.
const tickInterval sim.Cycles = 25_000

// noKey marks an absent key (a retired entity, a padding leaf); it
// compares greater than every real packed (clock, id) key.
const noKey = ^eventKey(0)

func makeEvent(clock sim.Cycles, id sim.CoreID) eventKey {
	return eventKey(clock)<<eventIDBits | eventKey(uint16(id))
}

func (e eventKey) clock() sim.Cycles { return sim.Cycles(e >> eventIDBits) }
func (e eventKey) id() sim.CoreID    { return sim.CoreID(e & (1<<eventIDBits - 1)) }

// eventQueue is a winner tree over packed event keys with one leaf per
// schedulable entity: leaf i holds entity i's next event, noKey once it
// has retired. Each inner node holds the smaller of its two children,
// so the root is the earliest event and its id names the leaf to
// update. The engine's one operation is "take the earliest entity,
// advance its clock, reschedule it"; set does that by rewriting the
// leaf and replaying its matches on the fixed log₂ path to the root,
// one min against the sibling per level. Unlike a heap sift, no step
// decides from the data whether to stop, so the loop has no branch to
// mispredict.
type eventQueue struct {
	t []eventKey // t[1] is the root, the leaves are t[len(t)/2:]
}

// reset sizes the tree for n leaves, all holding noKey, reusing the
// storage when it is large enough.
func (q *eventQueue) reset(n int) {
	size := 1
	for size < n {
		size <<= 1
	}
	if cap(q.t) < 2*size {
		q.t = make([]eventKey, 2*size)
	}
	q.t = q.t[:2*size]
	for i := range q.t {
		q.t[i] = noKey
	}
}

// min returns the earliest event (noKey once every leaf has retired).
func (q *eventQueue) min() eventKey { return q.t[1] }

// leaves returns the leaf row, padding included.
func (q *eventQueue) leaves() []eventKey { return q.t[len(q.t)/2:] }

// set schedules leaf i at e (noKey retires it).
func (q *eventQueue) set(i int, e eventKey) {
	t := q.t
	j := len(t)/2 + i
	t[j] = e
	for j > 1 {
		e = min(e, t[j^1])
		j >>= 1
		t[j] = e
	}
}

// ErrFootprint: the workload lays out more pages than a page table can
// map (pagetable.VPNSpace). Simulate reports it before building the
// layout. Match with errors.Is.
var ErrFootprint = errors.New("machine: footprint exceeds the page-table VPN space")

// footprintFits reports whether the pages cfg's workload or tenants
// ask for fit in a page table's VPN space.
func (cfg *Config) footprintFits() bool {
	if t := cfg.Tenants; t != nil {
		return t.PagesPerTenant <= 0 || t.Tenants <= pagetable.VPNSpace/t.PagesPerTenant
	}
	return cfg.Workload.Pages <= pagetable.VPNSpace
}

// Simulate executes one run to completion and returns its Result.
func Simulate(cfg Config) (*Result, error) { return simulate(cfg, nil) }

// simulate is Simulate with an optional scratch arena supplying the
// run's page-indexed tables; each RunMany worker passes an arena it
// recycles between runs. The Result references no scratch storage.
func simulate(cfg Config, sc *dense.Scratch) (*Result, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("machine: %d cores", cfg.Cores)
	}
	if cfg.Engine != SerialEngine && cfg.Engine != ParallelEngine {
		return nil, fmt.Errorf("machine: Config.Engine %v is neither SerialEngine nor ParallelEngine", cfg.Engine)
	}
	if cfg.Cores > maxEngineCores {
		return nil, fmt.Errorf("machine: %d cores exceeds the scheduler limit of %d", cfg.Cores, maxEngineCores)
	}
	// Written so that NaN fails it too: NaN compares false either way.
	if !(cfg.MemoryRatio >= 0 && cfg.MemoryRatio <= 1) {
		return nil, fmt.Errorf("machine: MemoryRatio %v is outside [0, 1]", cfg.MemoryRatio)
	}
	if cfg.MemoryRatio == 0 {
		cfg.MemoryRatio = 1
	}
	if cfg.Cost != (sim.CostModel{}) {
		// A NaN or infinite bandwidth would turn the PCIe wire time into
		// an arbitrary integer, and a non-positive one has no meaning.
		if b := cfg.Cost.DMABytesPerCycle; math.IsNaN(b) || math.IsInf(b, 0) || b <= 0 {
			return nil, fmt.Errorf("machine: Cost.DMABytesPerCycle %v is not a positive finite number", b)
		}
	}
	if !cfg.footprintFits() {
		return nil, fmt.Errorf("%w: more than %d pages", ErrFootprint, pagetable.VPNSpace)
	}
	var (
		totalPages int
		warmupFn   func() []workload.Stream
		streamsFn  func(seed uint64) []workload.Stream
	)
	if cfg.Tenants != nil {
		if cfg.Workload.Pages != 0 || cfg.Workload.TotalTouches != 0 || cfg.Workload.Name != "" {
			return nil, fmt.Errorf("machine: Config.Tenants and Config.Workload are mutually exclusive")
		}
		if cfg.PageSize != sim.Size4k {
			return nil, fmt.Errorf("machine: multi-tenant runs require 4 kB pages")
		}
		tl, err := cfg.Tenants.Build(cfg.Cores)
		if err != nil {
			return nil, err
		}
		totalPages = tl.TotalPages
		warmupFn = tl.WarmupStreams
		streamsFn = tl.Streams
	} else {
		layout, err := cfg.Workload.Build(cfg.Cores)
		if err != nil {
			return nil, err
		}
		totalPages = layout.TotalPages
		warmupFn = layout.WarmupStreams
		streamsFn = layout.Streams
	}
	frames := Frames(totalPages, cfg.MemoryRatio, cfg.PageSize)
	// Per-tenant policy instances size to the tenant footprint and an
	// even frame share, not the whole machine — what keeps a
	// 10,000-tenant run's policy tables affordable.
	polFrames, polPages := frames, totalPages
	if cfg.Tenants != nil {
		polFrames = frames / cfg.Tenants.Tenants
		if polFrames < 1 {
			polFrames = 1
		}
		polPages = cfg.Tenants.PagesPerTenant
	}
	factory, err := buildPolicy(cfg, polFrames, polPages, sc)
	if err != nil {
		return nil, err
	}
	var vmTenants *vm.TenantConfig
	if cfg.Tenants != nil {
		vmTenants = &vm.TenantConfig{
			Count:          cfg.Tenants.Tenants,
			PagesPerTenant: cfg.Tenants.PagesPerTenant,
		}
	}
	mgr, err := vm.NewManager(vm.Config{
		Cores:    cfg.Cores,
		Frames:   frames,
		PageSize: cfg.PageSize,
		Tables:   cfg.Tables,
		Cost:     cfg.Cost,
		Verify:   cfg.Verify,
		Pages:    totalPages,
		Scratch:  sc,
		Hist:     cfg.Hist,
		Tenants:  vmTenants,
		Probe:    cfg.Probe,
	}, factory)
	if err != nil {
		return nil, err
	}

	run := mgr.Run()
	var events eventQueue // sized by the first phase, reused by the second
	// Warm-up: every core touches its population once, bringing the
	// resident set and TLBs to steady state, then all cores synchronize
	// at a barrier and the counters are rebased.
	t0, err := runPhase(mgr, cfg, &events, warmupFn(), 0)
	if err != nil {
		return nil, err
	}
	warm := run.CloneIn(sc)
	for c := 0; c < cfg.Cores; c++ {
		mgr.TakeDebt(sim.CoreID(c)) // drop warm-up interrupt debt
	}
	// Counters are rebased below by subtracting the warm-up snapshot;
	// distributions cannot be, so the histograms restart here and cover
	// exactly the measured phase.
	if run.Hists != nil {
		run.Hists.Reset()
	}
	if run.Tenants != nil {
		run.Tenants.ResetHists()
	}
	if _, err = runPhase(mgr, cfg, &events, streamsFn(cfg.Seed), t0); err != nil {
		return nil, err
	}
	if err := run.Subtract(warm); err != nil {
		return nil, err
	}
	for i := range run.Finish {
		if run.Finish[i] > t0 {
			run.Finish[i] -= t0
		} else {
			run.Finish[i] = 0
		}
	}

	if cfg.Audit != nil {
		// One final full audit at quiescence, then surface anything the
		// periodic checks or this one found as a run failure.
		cfg.Audit.Audit(mgr)
		if err := cfg.Audit.Err(); err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
	}

	res := &Result{
		Config:     cfg,
		Run:        run,
		Runtime:    run.Runtime(),
		Frames:     frames,
		TotalPages: totalPages,
		PolicyName: mgr.Policy().Name(),
		Resident:   mgr.Resident(),
	}
	if h, ok := mgr.SharingHistogram(); ok {
		res.Sharing = h
	}
	return res, nil
}

// runPhase drives the DES until every core drains its stream, starting
// all clocks at start. It records per-core finish times and returns the
// barrier time (the latest finishing clock, scanner included in its own
// lane but excluded from the barrier). A non-nil error means the VM
// reported an internal inconsistency and the phase was abandoned.
func runPhase(mgr *vm.Manager, cfg Config, events *eventQueue, streams []workload.Stream, start sim.Cycles) (sim.Cycles, error) {
	run := mgr.Run()
	scannerID := sim.ScannerCore(cfg.Cores)
	events.reset(int(scannerID) + 1)
	for c := 0; c <= int(scannerID); c++ {
		events.set(c, makeEvent(start, sim.CoreID(c)))
	}
	scannerClock := start

	remaining := cfg.Cores
	var barrier sim.Cycles
	for remaining > 0 {
		// Take the earliest event and reschedule its entity; a retiring
		// core's leaf becomes noKey.
		top := events.min()
		id, clock := top.id(), top.clock()
		if cfg.Audit != nil {
			cfg.Audit.Note(mgr)
		}
		if id == scannerID {
			// Scanner pseudo-core: run policy periodic work, then
			// schedule the next tick after the work completes.
			cost := mgr.Tick(clock)
			if rec := cfg.Probe; rec != nil && rec.Sampling() {
				sample(rec, mgr, clock, events.leaves(), scannerID)
			}
			next := clock + tickInterval
			if done := clock + cost; done > next {
				next = done
			}
			scannerClock = next
			events.set(int(id), makeEvent(next, id))
			continue
		}
		// Deliver pending invalidation IPIs before the next access.
		if debt := mgr.TakeDebt(id); debt > 0 {
			events.set(int(id), makeEvent(clock+debt, id))
			continue
		}
		a, ok := streams[id].Next()
		if !ok {
			run.Finish[id] = clock
			if clock > barrier {
				barrier = clock
			}
			remaining--
			events.set(int(id), noKey) // core retires
			continue
		}
		done, err := mgr.Access(id, a.VPN, a.Write, clock)
		if err != nil {
			return 0, fmt.Errorf("machine: core %d at cycle %d: %w", id, clock, err)
		}
		events.set(int(id), makeEvent(done, id))
	}
	run.Finish[scannerID] = scannerClock
	return barrier, nil
}

// sample captures one time-series point on the sampler's schedule: the
// cumulative counter totals, the resident-set size, CMCP's group split
// (when the policy exposes one) and the virtual-clock skew across the
// still-running application cores. It runs on the scanner lane, so the
// sampling resolution is bounded below by tickInterval.
func sample(rec *obs.Recorder, mgr *vm.Manager, now sim.Cycles, events []eventKey, scannerID sim.CoreID) {
	rec.MaybeSample(now, func(s *obs.Sample) {
		run := mgr.Run()
		for c := 0; c < stats.NumCounters; c++ {
			s.Counters[c] = run.Total(stats.Counter(c))
		}
		s.Resident = mgr.Resident()
		if fifo, prio, ok := mgr.PolicyGroups(); ok {
			s.FIFOLen, s.PrioLen = fifo, prio
		}
		var lo, hi sim.Cycles
		active := 0
		for _, ev := range events {
			if ev == noKey || ev.id() == scannerID {
				continue
			}
			if c := ev.clock(); active == 0 || c < lo {
				lo = c
			}
			if c := ev.clock(); active == 0 || c > hi {
				hi = c
			}
			active++
		}
		if active >= 2 {
			s.ClockSkew = hi - lo
		}
	})
}
