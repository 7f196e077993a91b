package policy

import (
	"cmcp/internal/dense"
	"cmcp/internal/sim"
)

// LRU approximates least-recently-used the way the Linux kernel does
// (and the way the paper's comparison implementation does, §5.1): pages
// live on an active or an inactive list; a timer-driven scanner
// periodically tests and clears PTE accessed bits to move pages between
// the lists; victims come from the inactive tail.
//
// Every accessed-bit clear requires invalidating the cached translation
// on all mapping cores — the remote TLB invalidations that Table 1
// shows exploding and that make LRU lose to FIFO despite achieving
// fewer page faults. Those costs are charged inside Host.ScanAccessed.
type LRU struct {
	host     Host
	active   *dense.List
	inactive *dense.List

	// scanPeriod is the virtual time between scanner runs;
	// scanBatch bounds PTEs scanned per run.
	scanPeriod sim.Cycles
	scanBatch  int
	nextScan   sim.Cycles

	inactiveBuf, activeBuf []sim.PageID // reusable Tick batch buffers
	capacity               int          // resident pages the buffers are sized for
}

// defaultScanPeriod is the LRU and LFU scan period unless an option
// says otherwise: the paper's 10 ms timer at 1.053 GHz. The machine
// passes its own, compressed period (machine.buildPolicy).
const defaultScanPeriod sim.Cycles = 10_530_000

// LRUOption customizes an LRU instance.
type LRUOption func(*LRU)

// WithScanPeriod sets the scanner period in cycles.
func WithScanPeriod(p sim.Cycles) LRUOption {
	return func(l *LRU) { l.scanPeriod = p }
}

// WithScanBatch caps the number of pages examined per scanner run.
func WithScanBatch(n int) LRUOption {
	return func(l *LRU) { l.scanBatch = n }
}

// WithLRUArena pre-sizes both lists for page bases in [0, hint). The
// first argument is ignored.
func WithLRUArena(_ *dense.Scratch, hint int) LRUOption {
	return func(l *LRU) {
		l.active = dense.NewList(hint)
		l.inactive = dense.NewList(hint)
	}
}

// WithLRUCapacity sizes the Tick batch buffers for n resident pages up
// front (the device capacity in mappings): a batch holds at most
// min(ScanBatch, n) pages while the run holds at most n.
func WithLRUCapacity(n int) LRUOption {
	return func(l *LRU) { l.capacity = n }
}

// NewLRU returns an LRU approximation backed by host for access-bit
// scanning. The default period matches the paper's 10 ms timer.
func NewLRU(host Host, opts ...LRUOption) *LRU {
	l := &LRU{
		host:       host,
		active:     dense.NewList(0),
		inactive:   dense.NewList(0),
		scanPeriod: defaultScanPeriod,
		scanBatch:  256,
	}
	for _, o := range opts {
		o(l)
	}
	if n := min(l.scanBatch, l.capacity); n > 0 {
		l.inactiveBuf = make([]sim.PageID, 0, n)
		l.activeBuf = make([]sim.PageID, 0, n)
	}
	return l
}

// Name implements Policy.
func (l *LRU) Name() string { return "LRU" }

// PTESetup implements Policy. Newly resident pages enter the inactive
// list (Linux's default for freshly faulted pages); a minor fault by an
// additional core is itself evidence of use, refreshing the page and —
// if it was inactive — promoting it, mirroring mark_page_accessed on
// the fault path.
func (l *LRU) PTESetup(base sim.PageID) {
	switch {
	case l.active.Has(base):
		l.active.MoveToTail(base)
	case l.inactive.Has(base):
		l.inactive.Remove(base)
		l.active.PushTail(base)
	default:
		l.inactive.PushTail(base)
	}
}

// Victim implements Policy: the head (oldest) of the inactive list,
// falling back to the oldest active page under extreme pressure.
func (l *LRU) Victim() (sim.PageID, bool) {
	if base, ok := l.inactive.PopHead(); ok {
		return base, true
	}
	return l.active.PopHead()
}

// Remove implements Policy.
func (l *LRU) Remove(base sim.PageID) {
	if !l.inactive.Remove(base) {
		l.active.Remove(base)
	}
}

// Resident implements Policy.
func (l *LRU) Resident() int { return l.active.Len() + l.inactive.Len() }

// NextTick implements Deadline: the scan timer.
func (l *LRU) NextTick() sim.Cycles { return l.nextScan }

// Tick implements Policy: when the scan timer expires, examine a batch
// of pages from both lists, clearing accessed bits (via the host, which
// charges shootdowns) and rebalancing the lists.
func (l *LRU) Tick(now sim.Cycles) {
	if now < l.nextScan {
		return
	}
	l.nextScan = now + l.scanPeriod
	// Capture both batches before moving anything, so a page promoted
	// in the inactive pass is not immediately re-examined (and demoted)
	// in the active pass of the same tick.
	inactiveBatch := capture(l.inactive, l.scanBatch, l.inactiveBuf[:0])
	activeBatch := capture(l.active, l.scanBatch, l.activeBuf[:0])
	for _, base := range inactiveBatch {
		if !l.inactive.Has(base) {
			continue
		}
		if l.host.ScanAccessed(base) {
			l.inactive.Remove(base)
			l.active.PushTail(base)
		}
		// Unaccessed inactive pages stay put and age toward the head.
	}
	for _, base := range activeBatch {
		if !l.active.Has(base) {
			continue
		}
		if l.host.ScanAccessed(base) {
			l.active.MoveToTail(base)
		} else {
			l.active.Remove(base)
			l.inactive.PushTail(base)
		}
	}
	// Maintain the inactive-list target (Linux deactivates from the
	// active head when the inactive list shrinks below a fraction of
	// memory). Without this, a fully-referenced working set traps every
	// page on the active list and victims degrade to freshly-faulted
	// pages -- worse than FIFO.
	target := (l.active.Len() + l.inactive.Len()) / 3
	for l.inactive.Len() < target {
		base, ok := l.active.PopHead()
		if !ok {
			break
		}
		l.inactive.PushTail(base)
	}
	l.inactiveBuf, l.activeBuf = inactiveBatch[:0], activeBatch[:0]
}

// capture copies up to limit bases from the head of list into dst.
func capture(list *dense.List, limit int, dst []sim.PageID) []sim.PageID {
	n := 0
	list.ForEachFromHead(func(base sim.PageID) bool {
		dst = append(dst, base)
		n++
		return n < limit
	})
	return dst
}

// Lists exposes the current (active, inactive) sizes for tests and
// diagnostics.
func (l *LRU) Lists() (active, inactive int) {
	return l.active.Len(), l.inactive.Len()
}
