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
// The heap holds items by value with a page-indexed position table:
// victim selection never allocates, and the (freq, seq) order is a
// total order, so the pop sequence is independent of heap layout.
type LFU struct {
	host       Host
	heap       []lfuItem
	pos        dense.Index // base -> heap position
	scanPeriod sim.Cycles
	scanBatch  int
	nextScan   sim.Cycles
	seq        uint64
	cursor     sim.PageID // resume point for the round-robin scan
	capacity   int        // resident pages the heap and buffers are sized for

	snap, wrap []sim.PageID // reusable Tick snapshot buffers
}

type lfuItem struct {
	base sim.PageID
	freq int32
	seq  uint64 // FIFO tie-break among equal frequencies
}

func lfuLess(a, b *lfuItem) bool {
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.seq < b.seq
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

// WithLFUArena pre-sizes the position table for page bases in
// [0, hint). The first argument is ignored.
func WithLFUArena(_ *dense.Scratch, hint int) LFUOption {
	return func(l *LFU) { l.pos = dense.NewIndex(hint) }
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
		pos:        dense.NewIndex(0),
		scanPeriod: sim.DefaultCostModel().ScanPeriod,
		scanBatch:  256,
	}
	for _, o := range opts {
		o(l)
	}
	if l.capacity > 0 {
		l.heap = make([]lfuItem, 0, l.capacity)
		// A Tick's batch and wrap buffers hold distinct resident pages,
		// wrap at most scanBatch of them; batch ends up holding both.
		l.snap = make([]sim.PageID, 0, l.capacity)
		l.wrap = make([]sim.PageID, 0, min(l.scanBatch, l.capacity))
	}
	return l
}

// Name implements Policy.
func (l *LFU) Name() string { return "LFU" }

// heap plumbing: standard binary min-heap over l.heap, with l.pos
// tracking each base's slot.

func (l *LFU) swap(i, j int) {
	l.heap[i], l.heap[j] = l.heap[j], l.heap[i]
	l.pos.Set(l.heap[i].base, int32(i))
	l.pos.Set(l.heap[j].base, int32(j))
}

func (l *LFU) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !lfuLess(&l.heap[i], &l.heap[parent]) {
			break
		}
		l.swap(i, parent)
		i = parent
	}
}

func (l *LFU) down(i int) {
	n := len(l.heap)
	for {
		least := i
		if c := 2*i + 1; c < n && lfuLess(&l.heap[c], &l.heap[least]) {
			least = c
		}
		if c := 2*i + 2; c < n && lfuLess(&l.heap[c], &l.heap[least]) {
			least = c
		}
		if least == i {
			return
		}
		l.swap(i, least)
		i = least
	}
}

func (l *LFU) fix(i int) {
	l.down(i)
	l.up(i)
}

// removeAt deletes heap slot i, restoring heap order.
func (l *LFU) removeAt(i int) lfuItem {
	last := len(l.heap) - 1
	l.swap(i, last)
	it := l.heap[last]
	l.heap = l.heap[:last]
	l.pos.Delete(it.base)
	if i < last {
		l.fix(i)
	}
	return it
}

// PTESetup implements Policy. A fault is itself a reference: new pages
// start at frequency 1, and an additional core's minor fault bumps the
// estimate.
func (l *LFU) PTESetup(base sim.PageID) {
	if i := l.pos.Get(base); i >= 0 {
		l.heap[i].freq++
		l.fix(int(i))
		return
	}
	l.seq++
	l.heap = append(l.heap, lfuItem{base: base, freq: 1, seq: l.seq})
	l.pos.Set(base, int32(len(l.heap)-1))
	l.up(len(l.heap) - 1)
}

// Victim implements Policy: the minimum-frequency page.
func (l *LFU) Victim() (sim.PageID, bool) {
	if len(l.heap) == 0 {
		return 0, false
	}
	it := l.removeAt(0)
	return it.base, true
}

// Remove implements Policy.
func (l *LFU) Remove(base sim.PageID) {
	if i := l.pos.Get(base); i >= 0 {
		l.removeAt(int(i))
	}
}

// Resident implements Policy.
func (l *LFU) Resident() int { return len(l.heap) }

// NextTick implements Deadline: the scan timer.
func (l *LFU) NextTick() sim.Cycles { return l.nextScan }

// Tick implements Policy: sample a batch of pages round-robin by base,
// incrementing frequencies of accessed pages and decaying the rest.
func (l *LFU) Tick(now sim.Cycles) {
	if now < l.nextScan {
		return
	}
	l.nextScan = now + l.scanPeriod
	if len(l.heap) == 0 {
		return
	}
	// Snapshot bases in ascending order, starting at the cursor and
	// wrapping — the position table's Range is already base-ordered, so
	// no sort is needed.
	batch := l.snap[:0]
	wrap := l.wrap[:0]
	l.pos.Range(func(base sim.PageID, _ int32) bool {
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
		i := l.pos.Get(base)
		if i < 0 {
			continue
		}
		if l.host.ScanAccessed(base) {
			l.heap[i].freq += 2
		} else if l.heap[i].freq > 1 {
			l.heap[i].freq--
		}
		l.fix(int(i))
	}
	if len(batch) > 0 {
		l.cursor = batch[len(batch)-1] + 1
	}
	l.snap, l.wrap = batch[:0], wrap[:0]
}
