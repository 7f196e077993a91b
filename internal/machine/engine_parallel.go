// engine_parallel.go is the epoch-parallel simulation engine: a
// drop-in replacement for the serial event loop that produces
// bit-identical Results at a multiple of the throughput.
//
// The serial engine interleaves every touch of every core through one
// scheduler. Almost all of those touches are TLB hits that read and
// write nothing shared: their only effects are the core's own clock advance,
// its own TLB's FIFO evolution, per-core counters and idempotent
// accessed/dirty bits. The parallel engine exploits that by splitting
// the loop in two:
//
//   - Probe (parallel): each blocked core speculatively classifies a
//     window of upcoming touches against live state — the real TLB
//     lookups and walk-inserts run, journaled for undo — batching
//     consecutive same-page L1 hits into bursts. Probers touch only
//     core-local state (own TLB) and only read the page tables, so
//     any number of cores probe concurrently on worker goroutines.
//
//   - Sweep (serial): the engine repeatedly picks the earliest
//     serializing event E — a page fault, a stream retirement or a
//     scanner tick — in the same packed (clock, coreID) order the
//     scheduler would use, commits every speculative touch strictly
//     before E in one call per burst, and then runs the event against
//     the real manager exactly as the serial loop would.
//
// Speculation is only wrong when a serializing event invalidates a TLB
// entry that a pending window observed or produced (TLB.InvalDisturbs).
// The manager's invalidation observer fires before each shootdown is
// applied; the engine then rolls the victim core's window back via the
// TLB journal and re-probes it — rollback is bounded to that core's
// uncommitted window by construction, because everything serially
// before the event was already committed. Interrupt debt (shootdown
// IPIs) is drained after every serializing event into a per-core clock
// shift, which is exactly the serial deliver-at-next-pop semantics.
// DESIGN.md §13 develops the window invariant and the bit-identity
// argument in full.
package machine

import (
	"fmt"
	"runtime"
	"sync"

	"cmcp/internal/sim"
	"cmcp/internal/tlb"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

// EngineKind selects a simulation engine implementation.
type EngineKind uint8

const (
	// SerialEngine is the reference event loop: one scheduler, one goroutine,
	// every touch scheduled individually.
	SerialEngine EngineKind = iota
	// ParallelEngine is the epoch-parallel engine in this file.
	ParallelEngine
)

// String returns the engine's command-line name.
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

// ParseEngine parses a command-line engine name ("" selects serial).
func ParseEngine(s string) (EngineKind, error) {
	switch s {
	case "", "serial":
		return SerialEngine, nil
	case "parallel":
		return ParallelEngine, nil
	}
	return 0, fmt.Errorf("machine: unknown engine %q (want serial or parallel)", s)
}

// phaseRunner runs simulation phases on whichever engine the Config
// selected, owning the engine state that persists across the warm-up
// and measured phases.
type phaseRunner struct {
	mgr    *vm.Manager
	cfg    Config
	events eventQueue
	par    *parEngine // nil = serial
}

func newPhaseRunner(mgr *vm.Manager, cfg Config) *phaseRunner {
	pr := &phaseRunner{mgr: mgr, cfg: cfg}
	// Sized once here; both phases' resets reuse the storage.
	pr.events.reset(cfg.Cores + 1)
	if cfg.Engine == ParallelEngine && !needsSerialEngine(cfg) {
		pr.par = newParEngine(mgr, cfg)
	}
	return pr
}

// needsSerialEngine reports configurations whose observable semantics
// depend on the serial pop sequence itself, not just on the event
// order. These run serially even when Config.Engine asks for parallel;
// bit-identity is then trivial.
func needsSerialEngine(cfg Config) bool {
	// Time-series samples read the scheduler's per-pop picture (clock
	// skew across scheduled cores), which the parallel engine never forms.
	return cfg.Probe != nil && cfg.Probe.Sampling()
}

func (pr *phaseRunner) run(streams []workload.Stream, start sim.Cycles) (sim.Cycles, error) {
	if pr.par != nil {
		return pr.par.runPhase(streams, start)
	}
	return runPhase(pr.mgr, pr.cfg, &pr.events, streams, start)
}

func (pr *phaseRunner) close() {
	if pr.par != nil {
		pr.par.shutdown()
		pr.par = nil
	}
}

const (
	// probeBudget caps touches classified per probe dispatch, bounding
	// the work lost when an invalidation truncates a window.
	probeBudget = 512
	// burstCap caps touches per burst so one uint64 write mask describes
	// every touch exactly at any commit split point.
	burstCap = 64
)

// stopKind says why a probe stopped.
type stopKind uint8

const (
	// stopCap: probe budget exhausted; probing resumes from the cursor.
	stopCap stopKind = iota
	// stopFault: the next access misses the page tables. The access is
	// left unconsumed and re-executed for real when the sweep reaches it
	// (so any state change since the probe is honored automatically).
	stopFault
	// stopEnd: the stream drained; the core retires at the stop clock.
	stopEnd
)

// coreStatus is an engine core's scheduling state.
type coreStatus uint8

const (
	// stActive: the core has a speculative position (bursts and a stop).
	stActive coreStatus = iota
	// stProbe: the core needs (re-)probing from resume.
	stProbe
	// stDone: the stream retired this phase.
	stDone
)

// burst is a run of probed touches by one core on one page: the first
// touch classified at level, every later touch a provably private L1
// hit on the same entry, consecutive in time. It commits with one
// vm.CommitTouches call, splittable at any point because the write mask
// carries exact per-touch write bits.
type burst struct {
	vpn   sim.PageID
	start sim.Cycles // unshifted clock of the first uncommitted touch
	extra sim.Cycles // first touch's cost beyond TouchCompute
	first tlb.HitLevel
	count int32
	// booked records the bookkeeping already applied for this burst by
	// earlier partial commits: 0 none, 1 accessed bit, 2 accessed+dirty.
	// A later split may skip the page-walk bookkeeping it subsumes — the
	// bits cannot have weakened in between, because any event that
	// clears or unmaps them shoots down this core's TLB entry first,
	// which rolls the whole window (and this burst) back.
	booked uint8
	wmask  uint64 // bit k set = touch k writes
	jend   int    // journal mark after this burst's ops (-1 = still open)
}

// engCore is one application core's engine-side state.
type engCore struct {
	id sim.CoreID
	j  *tlb.Journal
	t  *tlb.TLB

	// stream is the core's live access stream, consumed directly on the
	// probe hot path — no per-access buffering. The stream is never
	// rewound: a rollback reconstructs the window's accesses from the
	// bursts themselves (each burst records every touch's page and write
	// bit verbatim) into the replay queue, which next() drains before
	// touching the stream again.
	stream workload.Stream
	replay []workload.Access
	rpos   int

	// pending holds the one access a fault probe read past the window
	// end: the sweep re-executes it for real, so the probe pushes it
	// back rather than burying it in a burst.
	pending    workload.Access
	hasPending bool

	status    coreStatus
	stop      stopKind
	stopClock sim.Cycles // unshifted clock of the stop
	resume    sim.Cycles // unshifted restart clock (status == stProbe)

	// shift is accumulated interrupt debt: every stored clock (burst
	// starts, stop, resume) is effectively stored+shift. Draining debt
	// into a uniform shift is exact because the serial engine delivers
	// debt at the debtor's next pop — before its next touch — which
	// delays that touch and, by induction, every later one by the same
	// amount.
	shift sim.Cycles

	bursts []burst
	bhead  int // bursts[:bhead] are committed
}

// next yields the core's next access: the pushed-back fault access
// first (it was read ahead of any replay remainder), then the rollback
// replay queue, then the live stream.
func (c *engCore) next() (workload.Access, bool) {
	if c.hasPending {
		c.hasPending = false
		return c.pending, true
	}
	if c.rpos < len(c.replay) {
		a := c.replay[c.rpos]
		c.rpos++
		return a, true
	}
	return c.stream.Next()
}

// parEngine is the epoch-parallel engine for one simulation run.
type parEngine struct {
	mgr   *vm.Manager
	cfg   Config
	cost  sim.CostModel
	cores []engCore

	// serialKeys/resumeKeys cache each core's effective serializing-stop
	// and probe-resume keys (noKey when absent), so the per-round minima
	// are flat uint64 scans instead of struct-field branch chains. A
	// core's slots are refreshed whenever its status, stop or shift
	// changes (refreshKeys); probers refresh only their own core's slots,
	// so concurrent probes stay race-free.
	serialKeys []eventKey
	resumeKeys []eventKey
	// pendKeys caches each core's first uncommitted touch as a packed
	// key (noKey when none): pendKeys[i] < E is exactly the condition
	// under which commitBefore(E) has work to do on core i.
	pendKeys []eventKey

	scannerID    sim.CoreID
	scannerClock sim.Cycles
	remaining    int
	barrier      sim.Cycles

	workers int
	taskCh  chan *engCore
	doneCh  chan struct{}
}

// refreshKeys recomputes c's cached key slots from its current state.
func (e *parEngine) refreshKeys(c *engCore) {
	sk, rk := noKey, noKey
	switch c.status {
	case stProbe:
		rk = makeEvent(c.resume+c.shift, c.id)
	case stActive:
		k := makeEvent(c.stopClock+c.shift, c.id)
		if c.stop == stopCap {
			rk = k
		} else {
			sk = k
		}
	}
	e.serialKeys[c.id] = sk
	e.resumeKeys[c.id] = rk
	e.refreshPend(c)
}

// refreshPend recomputes c's cached first-uncommitted-touch key.
func (e *parEngine) refreshPend(c *engCore) {
	if c.bhead < len(c.bursts) {
		e.pendKeys[c.id] = makeEvent(c.bursts[c.bhead].start+c.shift, c.id)
	} else {
		e.pendKeys[c.id] = noKey
	}
}

// workerBudget is the process-wide token pool of probe workers, sized to
// GOMAXPROCS once. Every parallel engine draws from the same pool, so
// RunMany sweeps with parallel inner engines stay bounded at
// sweep-parallelism + GOMAXPROCS live goroutines instead of
// multiplying; latecomers get fewer or zero workers and probe inline.
var (
	workerBudgetOnce sync.Once
	workerBudget     chan struct{}
)

func acquireWorkers(want int) int {
	workerBudgetOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		workerBudget = make(chan struct{}, n)
		for i := 0; i < n; i++ {
			workerBudget <- struct{}{}
		}
	})
	got := 0
	for got < want {
		select {
		case <-workerBudget:
			got++
		default:
			return got
		}
	}
	return got
}

func releaseWorkers(n int) {
	for i := 0; i < n; i++ {
		workerBudget <- struct{}{}
	}
}

func newParEngine(mgr *vm.Manager, cfg Config) *parEngine {
	e := &parEngine{
		mgr:        mgr,
		cfg:        cfg,
		cost:       mgr.Cost(),
		cores:      make([]engCore, cfg.Cores),
		serialKeys: make([]eventKey, cfg.Cores),
		resumeKeys: make([]eventKey, cfg.Cores),
		pendKeys:   make([]eventKey, cfg.Cores),
		scannerID:  sim.ScannerCore(cfg.Cores),
	}
	for i := range e.cores {
		c := &e.cores[i]
		c.id = sim.CoreID(i)
		c.j = &tlb.Journal{}
		c.t = mgr.JournalTLB(c.id, c.j)
	}
	mgr.SetInvalObserver(e.onInvalidate)

	want := cfg.Cores
	if m := runtime.GOMAXPROCS(0) - 1; want > m {
		want = m
	}
	if want < 0 {
		want = 0
	}
	e.workers = acquireWorkers(want)
	if e.workers > 0 {
		e.taskCh = make(chan *engCore)
		e.doneCh = make(chan struct{}, e.workers)
		for i := 0; i < e.workers; i++ {
			go e.worker(e.taskCh)
		}
	}
	return e
}

// worker probes the cores sent on tasks until it is closed. It takes
// the channel by value: shutdown nils e.taskCh after closing it, and a
// worker that first read the field after that would range over a nil
// channel and block forever.
func (e *parEngine) worker(tasks <-chan *engCore) {
	for c := range tasks {
		e.probe(c)
		e.doneCh <- struct{}{}
	}
}

// shutdown detaches the engine from the manager and returns its worker
// tokens. Safe to call once, after the last phase.
func (e *parEngine) shutdown() {
	if e.taskCh != nil {
		close(e.taskCh)
		e.taskCh = nil
	}
	releaseWorkers(e.workers)
	e.workers = 0
	e.mgr.SetInvalObserver(nil)
	for i := range e.cores {
		e.cores[i].t.SetJournal(nil)
	}
}

// runPhase is the parallel counterpart of the serial runPhase: same
// contract, same Results.
func (e *parEngine) runPhase(streams []workload.Stream, start sim.Cycles) (sim.Cycles, error) {
	run := e.mgr.Run()
	for i := range e.cores {
		c := &e.cores[i]
		c.stream = streams[c.id]
		c.replay = nil
		c.rpos = 0
		c.hasPending = false
		c.status = stProbe
		c.resume = start
		c.shift = 0
		c.bursts = c.bursts[:0]
		c.bhead = 0
		e.refreshKeys(c)
	}
	e.scannerClock = start
	e.remaining = len(e.cores)
	e.barrier = 0

	for e.remaining > 0 {
		ev := e.minSerialKey()
		if r, ok := e.minResumeKey(); ok && r < ev {
			e.probeAll(ev)
			continue
		}
		e.commitBefore(ev)
		if err := e.processEvent(ev); err != nil {
			return 0, err
		}
	}
	run.Finish[e.scannerID] = e.scannerClock
	return e.barrier, nil
}

// minSerialKey returns the earliest serializing event: the scanner tick
// or an active core's fault/retirement stop, in packed (clock, id)
// order.
func (e *parEngine) minSerialKey() eventKey {
	k := makeEvent(e.scannerClock, e.scannerID)
	for _, ck := range e.serialKeys {
		if ck < k {
			k = ck
		}
	}
	return k
}

// minResumeKey returns the earliest point some core needs probing (a
// stProbe core's resume, or a budget-capped core's cursor).
func (e *parEngine) minResumeKey() (eventKey, bool) {
	k := noKey
	for _, ck := range e.resumeKeys {
		if ck < k {
			k = ck
		}
	}
	return k, k != noKey
}

// probeAll probes every core whose resume point precedes limit,
// fanning out across the worker pool; overflow (and the case with no
// workers) probes inline on the sweep goroutine.
func (e *parEngine) probeAll(limit eventKey) {
	inflight := 0
	for i := range e.cores {
		if e.resumeKeys[i] >= limit {
			continue
		}
		c := &e.cores[i]
		if e.workers > 0 {
			select {
			case e.taskCh <- c:
				inflight++
				continue
			default:
			}
		}
		e.probe(c)
	}
	for ; inflight > 0; inflight-- {
		<-e.doneCh
	}
}

// probe speculatively classifies up to probeBudget touches for c,
// journaling every TLB mutation. Runs on a worker goroutine: it may
// touch only c and core-local manager state (ProbeAccess contract).
//
// The window is fenced at the next scanner tick: a tick's accessed-bit
// scan is the one event class that invalidates en masse (every page it
// clears shoots down its mappers), so speculation past it is the work
// most likely to be thrown away. Touches at the tick clock itself still
// commit before the tick (the scanner sorts last at equal clocks), so
// the fence costs nothing when no scan lands. Touches past a pending
// page fault are fair speculation — a fault disturbs at most the one
// mapping it evicts.
func (e *parEngine) probe(c *engCore) {
	var clock sim.Cycles
	if c.status == stProbe {
		clock = c.resume + c.shift
		c.shift = 0
		c.status = stActive
	} else {
		clock = c.stopClock // cap continuation: shift stays factored out
	}
	c.j.Enable()
	tc := e.cost.TouchCompute
	fence := e.scannerClock - c.shift // stable during a probe round
	for budget := probeBudget; budget > 0; budget-- {
		if clock > fence {
			c.stop = stopCap
			c.stopClock = clock
			e.closeProbe(c)
			return
		}
		a, ok := c.next()
		if !ok {
			c.stop = stopEnd
			c.stopClock = clock
			e.closeProbe(c)
			return
		}
		if n := len(c.bursts); n > c.bhead && c.bursts[n-1].vpn == a.VPN {
			// Same page as the immediately preceding touch: its entry is
			// provably still in L1 — the previous touch left it there, L1
			// hits mutate nothing, nothing was inserted since, and had a
			// shootdown removed it this window would have been rolled
			// back — so skip the lookup entirely.
			last := &c.bursts[n-1]
			if last.count < burstCap {
				if a.Write {
					last.wmask |= 1 << uint(last.count)
				}
				last.count++
				clock += tc
				continue
			}
			if last.jend < 0 {
				last.jend = c.j.Mark()
			}
			b := burst{vpn: a.VPN, start: clock, first: tlb.HitL1, count: 1, jend: -1}
			if a.Write {
				b.wmask = 1
			}
			c.bursts = append(c.bursts, b)
			clock += tc
			continue
		}
		mark := c.j.Mark()
		extra, level, _, _, hit := e.mgr.ProbeAccess(c.id, a.VPN)
		if !hit {
			c.pending = a
			c.hasPending = true
			c.stop = stopFault
			c.stopClock = clock
			e.closeProbe(c)
			return
		}
		if n := len(c.bursts); n > c.bhead {
			if last := &c.bursts[n-1]; last.jend < 0 {
				last.jend = mark // ops past mark belong to the new burst
			}
		}
		b := burst{vpn: a.VPN, start: clock, extra: extra, first: level, count: 1, jend: -1}
		if a.Write {
			b.wmask = 1
		}
		c.bursts = append(c.bursts, b)
		clock += extra + tc
	}
	c.stop = stopCap
	c.stopClock = clock
	e.closeProbe(c)
}

// closeProbe seals the last open burst at the current journal position,
// stops logging, and refreshes the core's cached keys (safe from worker
// goroutines: each prober writes only its own core's slots).
func (e *parEngine) closeProbe(c *engCore) {
	if n := len(c.bursts); n > c.bhead {
		if last := &c.bursts[n-1]; last.jend < 0 {
			last.jend = c.j.Mark()
		}
	}
	c.j.Disable()
	e.refreshKeys(c)
}

// lowMask returns a mask of the low k bits (k ≤ 64).
func lowMask(k uint64) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return 1<<k - 1
}

// commitBefore retires every speculative touch strictly before event b
// in serial order, splitting bursts at the boundary. After it returns,
// the machine's observable state is exactly the serial engine's state
// at the moment b pops.
func (e *parEngine) commitBefore(b eventKey) {
	bc, bid := b.clock(), b.id()
	audited := 0
	for i, pk := range e.pendKeys {
		// pk is the packed key of core i's first uncommitted touch, so
		// pk < b is exactly "some touch commits before b".
		if pk >= b {
			continue
		}
		c := &e.cores[i]
		// Touches at clock t commit iff (t, c.id) < (bc, bid).
		lim := bc
		if c.id < bid {
			lim++
		}
		audited += e.commitCore(c, lim)
		e.refreshPend(c)
	}
	if audited > 0 && e.cfg.Audit != nil {
		e.cfg.Audit.NoteN(e.mgr, audited)
	}
}

// commitCore commits c's burst prefix with effective clock < lim and
// returns the number of touches retired.
func (e *parEngine) commitCore(c *engCore, lim sim.Cycles) int {
	tc := e.cost.TouchCompute
	total := 0
	for c.bhead < len(c.bursts) {
		b := &c.bursts[c.bhead]
		base := b.start + c.shift
		if base >= lim {
			break
		}
		// Touch 0 runs at base, touch k ≥ 1 at base + extra + k·tc.
		n := uint64(b.count)
		rem := lim - base // ≥ 1
		var k uint64
		switch {
		case b.extra >= rem:
			k = 1
		case tc == 0 || b.extra+sim.Cycles(n-1)*tc < rem:
			k = n // whole burst: the common case, no division
		default:
			k = uint64((rem-b.extra-1)/tc) + 1
			if k > n {
				k = n
			}
		}
		w := b.wmask&lowMask(k) != 0
		book := b.booked == 0 || (w && b.booked < 2)
		e.mgr.CommitTouches(c.id, b.vpn, b.first, k, w, book)
		total += int(k)
		c.j.Release(b.jend)
		if k == n {
			c.bhead++
			continue
		}
		// Partial commit: normalize the remainder so its first touch is a
		// plain L1 hit at its own clock. Its TLB ops (first touch only)
		// just committed with the prefix, so the released jend stays right.
		if w {
			b.booked = 2
		} else if b.booked == 0 {
			b.booked = 1
		}
		b.start += b.extra + sim.Cycles(k)*tc
		b.extra = 0
		b.first = tlb.HitL1
		b.wmask >>= k
		b.count = int32(n - k)
		break
	}
	if c.bhead == len(c.bursts) {
		c.bursts = c.bursts[:0]
		c.bhead = 0
	}
	return total
}

// processEvent runs one serializing event exactly as the serial loop
// would, then drains any interrupt debt it charged.
func (e *parEngine) processEvent(ev eventKey) error {
	if e.cfg.Audit != nil {
		e.cfg.Audit.Note(e.mgr)
	}
	clock := ev.clock()
	if ev.id() == e.scannerID {
		cost := e.mgr.Tick(clock)
		next := clock + tickInterval
		if done := clock + cost; done > next {
			next = done
		}
		e.scannerClock = next
		e.drainDebt()
		return nil
	}
	c := &e.cores[ev.id()]
	switch c.stop {
	case stopFault:
		a, ok := c.next()
		if !ok {
			return fmt.Errorf("machine: core %d at cycle %d: lost the faulting access", c.id, clock)
		}
		// Re-execute the faulting access for real at its serial clock; any
		// state change since the probe (a sibling's minor fault, an evicted
		// mapping) is honored automatically because this is the full path.
		done, err := e.mgr.Access(c.id, a.VPN, a.Write, clock)
		if err != nil {
			return fmt.Errorf("machine: core %d at cycle %d: %w", c.id, clock, err)
		}
		c.status = stProbe
		c.resume = done
		c.shift = 0
		e.refreshKeys(c)
		e.drainDebt()
	case stopEnd:
		run := e.mgr.Run()
		run.Finish[c.id] = clock
		if clock > e.barrier {
			e.barrier = clock
		}
		e.remaining--
		c.status = stDone
		e.refreshKeys(c)
	default:
		return fmt.Errorf("machine: core %d at cycle %d: cap stop reached the sweep", c.id, clock)
	}
	return nil
}

// drainDebt folds freshly charged interrupt debt into each core's clock
// shift (see engCore.shift for why this is exact).
func (e *parEngine) drainDebt() {
	for i := range e.cores {
		c := &e.cores[i]
		if c.status == stDone {
			continue
		}
		if d := e.mgr.TakeDebt(c.id); d > 0 {
			c.shift += d
			e.refreshKeys(c)
		}
	}
}

// onInvalidate runs immediately before a TLB shootdown is applied to
// core. If the invalidation disturbs state the core's speculative
// window depends on, the window is rolled back — journal undo restores
// the TLB, the window's accesses return to the replay queue — and the
// core re-probes from its first uncommitted touch. Everything serially
// before the invalidating event was committed already, so rollback is
// bounded to the window.
func (e *parEngine) onInvalidate(core sim.CoreID, base sim.PageID) {
	c := &e.cores[core]
	if c.status != stActive || c.bhead == len(c.bursts) {
		return // no speculation in flight (committed state is current)
	}
	if !c.t.InvalDisturbs(base) {
		return
	}
	c.j.Rollback()
	c.resume = c.bursts[c.bhead].start
	c.status = stProbe
	// Reconstruct the window's accesses for the re-probe: the bursts
	// record every uncommitted touch's page and write bit verbatim and
	// in order, so the replay queue is rebuilt from them — the live
	// stream is never rewound. A pushed-back fault access was read just
	// after the last burst, and any undrained remainder of a previous
	// replay queue after that.
	n := 0
	for i := c.bhead; i < len(c.bursts); i++ {
		n += int(c.bursts[i].count)
	}
	if c.hasPending {
		n++
	}
	nq := make([]workload.Access, 0, n+len(c.replay)-c.rpos)
	for i := c.bhead; i < len(c.bursts); i++ {
		b := &c.bursts[i]
		for k := int32(0); k < b.count; k++ {
			nq = append(nq, workload.Access{VPN: b.vpn, Write: b.wmask>>uint(k)&1 != 0})
		}
	}
	if c.hasPending {
		nq = append(nq, c.pending)
		c.hasPending = false
	}
	nq = append(nq, c.replay[c.rpos:]...)
	c.replay, c.rpos = nq, 0
	c.bursts = c.bursts[:0]
	c.bhead = 0
	e.refreshKeys(c)
}
