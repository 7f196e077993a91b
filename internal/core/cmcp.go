// Package core implements the paper's primary contribution: the
// Core-Map Count based Priority (CMCP) page replacement policy (§3).
//
// CMCP exploits auxiliary knowledge that only per-core partially
// separated page tables (PSPT) can provide: the number of CPU cores
// mapping each page. Intuitively, pages mapped by many cores are (a)
// likely more important than per-core private data and (b) expensive to
// evict, because remapping them requires TLB invalidations on every
// mapping core. CMCP therefore keeps resident pages in two groups:
//
//   - a regular group maintained as a simple FIFO list, and
//   - a priority group — a priority queue ordered by core-map count —
//     holding at most a fraction p (0 <= p <= 1) of the resident pages.
//
// When a core sets up a PTE, the policy consults PSPT for the page's
// core-map count and tries to place the page into the priority group,
// displacing the current minimum if the group is full and the new page
// maps more cores. A slow aging mechanism drains stale prioritized
// pages back to FIFO so the group cannot be monopolized. Eviction takes
// the FIFO head, or the lowest-priority page when the FIFO is empty.
//
// The crucial property: no step of this requires reading or clearing
// PTE accessed bits, so CMCP issues zero statistics-related remote TLB
// invalidations — the overhead that sinks LRU-style policies on
// many-cores.
package core

import (
	"fmt"

	"cmcp/internal/dense"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
)

// DefaultP is the prioritized-pages ratio used when none is given. The
// paper tunes p per workload (Figure 9); 0.5 is a robust middle ground.
const DefaultP = 0.5

// defaultAgePeriod is the time between two aging sweeps unless
// WithAgePeriod says otherwise: the paper's 20 ms at 1.053 GHz, not
// compressed like the LRU and LFU scan periods the machine sets.
const defaultAgePeriod sim.Cycles = 21_060_000

// CMCP is the Core-Map Count based Priority replacement policy.
type CMCP struct {
	host     policy.Host
	capacity int     // resident-mapping capacity (device frames / span)
	p        float64 // ratio of prioritized pages

	fifo *dense.List
	// prio is the priority group: a min-heap keyed by core-map count,
	// whose root is the next page to be displaced or evicted from the
	// group. A key starts at the page's count and decays with aging; a
	// page whose key falls below 1 (a core-private page's count) drains
	// back to FIFO.
	prio  dense.Heap
	pages int // page-index hint for prio

	agePeriod sim.Cycles
	ageDecay  float64
	nextAge   sim.Cycles

	// dynamic-p tuner (the paper's §5.6 future work); nil when static.
	tuner *Tuner

	// observer receives priority-group transitions; nil when nobody
	// listens (the common case — calls are guarded by one nil check).
	observer Observer
}

// Observer receives CMCP priority-group transitions. The simulator's
// flight recorder (internal/obs) satisfies it structurally; the
// interface lives here so the policy depends on nothing above it.
type Observer interface {
	// NotePromotion reports base entering the priority group with the
	// given core-map-count key.
	NotePromotion(base sim.PageID, key float64)
	// NoteDemotion reports base draining from the priority group back
	// to the FIFO list (displacement by a hotter page, or aging).
	NoteDemotion(base sim.PageID)
}

// Option customizes a CMCP instance.
type Option func(*CMCP)

// WithP sets the prioritized-pages ratio p in [0, 1].
func WithP(p float64) Option {
	return func(c *CMCP) { c.p = p }
}

// WithAgePeriod sets the aging sweep period in cycles.
func WithAgePeriod(period sim.Cycles) Option {
	return func(c *CMCP) { c.agePeriod = period }
}

// WithAgeDecay sets how much every prioritized page's key decays per
// aging sweep (default 1.0, one mapping core's worth).
func WithAgeDecay(d float64) Option {
	return func(c *CMCP) { c.ageDecay = d }
}

// WithTuner attaches a dynamic-p tuner (see Tuner).
func WithTuner(t *Tuner) Option {
	return func(c *CMCP) { c.tuner = t }
}

// WithObserver attaches a priority-group transition observer.
func WithObserver(o Observer) Option {
	return func(c *CMCP) { c.observer = o }
}

// WithArena pre-sizes the FIFO list and the priority group's position
// index for page bases in [0, hint). The first argument is ignored.
func WithArena(_ *dense.Scratch, hint int) Option {
	return func(c *CMCP) {
		c.fifo = dense.NewList(hint)
		c.pages = hint
	}
}

// New creates a CMCP policy. host supplies core-map counts (PSPT);
// capacity is the number of mappings the device can hold and bounds the
// priority group at p*capacity.
func New(host policy.Host, capacity int, opts ...Option) *CMCP {
	if capacity < 0 {
		panic(fmt.Sprintf("core: negative capacity %d", capacity))
	}
	c := &CMCP{
		host:      host,
		capacity:  capacity,
		p:         DefaultP,
		fifo:      dense.NewList(0),
		agePeriod: defaultAgePeriod,
		ageDecay:  1.0,
	}
	for _, o := range opts {
		o(c)
	}
	if c.p < 0 || c.p > 1 {
		panic(fmt.Sprintf("core: p=%v out of [0,1]", c.p))
	}
	// The group never holds more than maxPrio pages while p is fixed, so
	// the heap is made at that bound; only a tuner raising p grows it.
	c.prio = dense.NewHeap(c.maxPrio(), c.pages)
	if c.tuner != nil {
		c.tuner.attach(c)
	}
	return c
}

// Name implements policy.Policy.
func (c *CMCP) Name() string { return "CMCP" }

// P returns the current prioritized-pages ratio.
func (c *CMCP) P() float64 { return c.p }

// SetP changes the ratio at runtime (used by the dynamic tuner). A
// shrunken priority group drains lazily through aging and eviction.
func (c *CMCP) SetP(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	c.p = p
}

// maxPrio is the current priority-group bound, p * capacity.
func (c *CMCP) maxPrio() int { return int(c.p * float64(c.capacity)) }

// PTESetup implements policy.Policy. Called whenever any core installs
// a PTE for base: the policy re-reads the page's core-map count from
// PSPT and (re)considers its placement. No TLB activity is involved —
// the count is free auxiliary knowledge from the per-core page tables.
func (c *CMCP) PTESetup(base sim.PageID) {
	count := c.host.CoreMapCount(base)
	if count < 0 {
		// Running over regular page tables (no PSPT): the core-map
		// count does not exist and every page is indistinguishable.
		count = 1
	}
	key := float64(count)
	if old, ok := c.prio.Key(base); ok {
		// Already prioritized: refresh the key if sharing grew.
		if key > old {
			c.prio.Update(base, key)
		}
		return
	}
	if c.fifo.Has(base) {
		// Resident on the FIFO list; a new core mapped it. Try to
		// promote it into the priority group under the same rule.
		if c.tryAdmit(base, key) {
			c.fifo.Remove(base)
		}
		return
	}
	// Newly resident page.
	if !c.tryAdmit(base, key) {
		c.fifo.PushTail(base)
	}
}

// tryAdmit places a new page into the priority group if there is room
// or it beats the current minimum. The displaced minimum falls to FIFO.
func (c *CMCP) tryAdmit(base sim.PageID, key float64) bool {
	max := c.maxPrio()
	if max <= 0 {
		return false
	}
	if c.prio.Len() >= max {
		if _, minKey, _ := c.prio.Min(); key <= minKey {
			return false
		}
		c.demoteMin()
	}
	c.prio.Push(base, key)
	if c.observer != nil {
		c.observer.NotePromotion(base, key)
	}
	return true
}

// demoteMin drains the lowest-priority page back to the FIFO tail.
func (c *CMCP) demoteMin() {
	base, _ := c.prio.PopMin()
	c.fifo.PushTail(base)
	if c.observer != nil {
		c.observer.NoteDemotion(base)
	}
}

// Victim implements policy.Policy: the FIFO head, or — only when the
// regular list is empty — the lowest-priority page (§3: "the algorithm
// either takes the first page of the regular FIFO list, or if the
// regular list is empty, the lowest priority page ... is removed").
func (c *CMCP) Victim() (sim.PageID, bool) {
	if base, ok := c.fifo.PopHead(); ok {
		return base, true
	}
	return c.prio.PopMin()
}

// Remove implements policy.Policy.
func (c *CMCP) Remove(base sim.PageID) {
	if !c.prio.Remove(base) {
		c.fifo.Remove(base)
	}
}

// Resident implements policy.Policy.
func (c *CMCP) Resident() int { return c.fifo.Len() + c.prio.Len() }

// Groups returns the (fifo, priority) group sizes for tests and the
// Figure 9 analysis.
func (c *CMCP) Groups() (fifo, prio int) { return c.fifo.Len(), c.prio.Len() }

// NextTick implements policy.Deadline: the aging timer, or the tuner's
// evaluation if that comes first. Before the first tick arms the timer
// the policy is always due.
func (c *CMCP) NextTick() sim.Cycles {
	if c.nextAge == 0 {
		return 0
	}
	if c.tuner != nil {
		return min(c.nextAge, c.tuner.nextEval)
	}
	return c.nextAge
}

// Tick implements policy.Policy: the aging sweep. Every agePeriod all
// prioritized pages' keys decay by ageDecay; pages whose key drops
// below 1 (no better than core-private) fall back to the FIFO list, so
// pages that are no longer shared cannot monopolize the priority group.
// Aging also enforces a shrunken bound after SetP.
func (c *CMCP) Tick(now sim.Cycles) {
	if c.tuner != nil {
		c.tuner.tick(now)
	}
	if c.nextAge == 0 {
		// First tick: arm the timer one full period out. Sweeping here
		// would decay freshly promoted keys a whole period early.
		c.nextAge = now + c.agePeriod
		return
	}
	if now < c.nextAge {
		return
	}
	c.nextAge = now + c.agePeriod
	// Keys change uniformly, so heap order is preserved; only drain the
	// underflowed minimums and any excess over the (possibly reduced)
	// bound.
	c.prio.Shift(-c.ageDecay)
	for {
		_, key, ok := c.prio.Min()
		if !ok || (key >= 1 && c.prio.Len() <= c.maxPrio()) {
			break
		}
		c.demoteMin()
	}
}

// CheckInvariants verifies the policy's internal consistency: the
// priority group's heap (see dense.Heap.CheckInvariants) and that no
// page sits in both groups. The invariant auditor (internal/check)
// calls it through a type assertion; it is read-only and safe at any
// point between operations.
func (c *CMCP) CheckInvariants() error {
	if err := c.prio.CheckInvariants(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	var err error
	c.prio.Range(func(base sim.PageID) bool {
		if c.fifo.Has(base) {
			err = fmt.Errorf("core: page %d in both priority group and FIFO", base)
		}
		return err == nil
	})
	return err
}

// NoteFault lets the VM report a major page fault to the policy; CMCP
// forwards it to the dynamic-p tuner when one is attached. The method
// satisfies the optional vm.FaultObserver extension.
func (c *CMCP) NoteFault() {
	if c.tuner != nil {
		c.tuner.noteFault()
	}
}
