package policy

import (
	"cmcp/internal/dense"
	"cmcp/internal/sim"
)

// LFU approximates least-frequently-used. Real kernels cannot count
// individual references, so — like LRU — the approximation samples PTE
// accessed bits on a timer: each scan in which a page's bit was found
// set increments its frequency estimate, and frequencies decay so stale
// pages can leave. Victims are minimum-frequency pages. The paper (§3)
// lists LFU among the access-bit-dependent policies that inherit LRU's
// shootdown overhead; this implementation makes that measurable.
//
// The frequency estimates are the keys of a dense.Heap, whose (key,
// push order) order is total, so the pop sequence is independent of the
// heap's layout. Frequencies are small integers, exact as float64 keys.
type LFU struct {
	host       Host
	heap       dense.Heap
	pages      int // page-index hint for heap
	scanPeriod sim.Cycles
	scanBatch  int
	nextScan   sim.Cycles
	cursor     sim.PageID // resume point for the round-robin scan
	capacity   int        // resident pages the heap and buffers are sized for

	snap, wrap []sim.PageID // reusable Tick snapshot buffers
}

// LFUOption customizes an LFU instance.
type LFUOption func(*LFU)

// WithLFUScanPeriod sets the sampling period in cycles.
func WithLFUScanPeriod(p sim.Cycles) LFUOption {
	return func(l *LFU) { l.scanPeriod = p }
}

// WithLFUScanBatch caps pages sampled per run.
func WithLFUScanBatch(n int) LFUOption {
	return func(l *LFU) { l.scanBatch = n }
}

// WithLFUArena pre-sizes the heap's position index for page bases in
// [0, hint). The first argument is ignored.
func WithLFUArena(_ *dense.Scratch, hint int) LFUOption {
	return func(l *LFU) { l.pages = hint }
}

// WithLFUCapacity sizes the heap and the Tick snapshot buffers for n
// resident pages up front (the device capacity in mappings). Both are
// disjoint subsets of the resident pages, so a run that never holds
// more than n pages never grows them.
func WithLFUCapacity(n int) LFUOption {
	return func(l *LFU) { l.capacity = n }
}

// NewLFU returns an LFU approximation backed by host.
func NewLFU(host Host, opts ...LFUOption) *LFU {
	l := &LFU{
		host:       host,
		scanPeriod: defaultScanPeriod,
		scanBatch:  256,
	}
	for _, o := range opts {
		o(l)
	}
	l.heap = dense.NewHeap(l.capacity, l.pages)
	if l.capacity > 0 {
		// A Tick's batch and wrap buffers hold distinct resident pages,
		// wrap at most scanBatch of them; batch ends up holding both.
		l.snap = make([]sim.PageID, 0, l.capacity)
		l.wrap = make([]sim.PageID, 0, min(l.scanBatch, l.capacity))
	}
	return l
}

// Name implements Policy.
func (l *LFU) Name() string { return "LFU" }

// PTESetup implements Policy. A fault is itself a reference: new pages
// start at frequency 1, and an additional core's minor fault bumps the
// estimate.
func (l *LFU) PTESetup(base sim.PageID) {
	if freq, ok := l.heap.Key(base); ok {
		l.heap.Update(base, freq+1)
		return
	}
	l.heap.Push(base, 1)
}

// Victim implements Policy: the minimum-frequency page.
func (l *LFU) Victim() (sim.PageID, bool) { return l.heap.PopMin() }

// Remove implements Policy.
func (l *LFU) Remove(base sim.PageID) { l.heap.Remove(base) }

// Resident implements Policy.
func (l *LFU) Resident() int { return l.heap.Len() }

// NextTick implements Deadline: the scan timer.
func (l *LFU) NextTick() sim.Cycles { return l.nextScan }

// Tick implements Policy: sample a batch of pages round-robin by base,
// incrementing frequencies of accessed pages and decaying the rest.
func (l *LFU) Tick(now sim.Cycles) {
	if now < l.nextScan {
		return
	}
	l.nextScan = now + l.scanPeriod
	if l.heap.Len() == 0 {
		return
	}
	// Snapshot bases in ascending order, starting at the cursor and
	// wrapping — the heap's Range is already base-ordered, so no sort
	// is needed.
	batch := l.snap[:0]
	wrap := l.wrap[:0]
	l.heap.Range(func(base sim.PageID) bool {
		if base >= l.cursor {
			batch = append(batch, base)
		} else if len(wrap) < l.scanBatch {
			wrap = append(wrap, base)
		}
		return len(batch) < l.scanBatch
	})
	batch = append(batch, wrap...)
	if len(batch) > l.scanBatch {
		batch = batch[:l.scanBatch]
	}
	for _, base := range batch {
		freq, ok := l.heap.Key(base)
		if !ok {
			continue
		}
		if l.host.ScanAccessed(base) {
			l.heap.Update(base, freq+2)
		} else if freq > 1 {
			l.heap.Update(base, freq-1)
		}
	}
	if len(batch) > 0 {
		l.cursor = batch[len(batch)-1] + 1
	}
	l.snap, l.wrap = batch[:0], wrap[:0]
}

// CheckInvariants verifies the frequency heap (see
// dense.Heap.CheckInvariants). The invariant auditor (internal/check)
// calls it through a type assertion.
func (l *LFU) CheckInvariants() error { return l.heap.CheckInvariants() }
