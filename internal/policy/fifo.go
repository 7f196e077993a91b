package policy

import (
	"cmcp/internal/dense"
	"cmcp/internal/sim"
)

// FIFO is the baseline first-in first-out policy: pages are evicted in
// the order they became resident. It needs no usage statistics and
// therefore causes no statistics shootdowns — the property that,
// surprisingly, lets it beat LRU on many-cores (paper §5.4).
type FIFO struct {
	list *dense.List
}

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO { return NewFIFOIn(nil, 0) }

// NewFIFOIn returns a FIFO policy whose list is pre-sized for page
// bases in [0, hint). The first argument is ignored.
func NewFIFOIn(_ *dense.Scratch, hint int) *FIFO {
	return &FIFO{list: dense.NewList(hint)}
}

// Name implements Policy.
func (f *FIFO) Name() string { return "FIFO" }

// PTESetup implements Policy. Only the first setup (the fault that
// brought the page in) enqueues; later cores' minor faults leave the
// queue position unchanged.
func (f *FIFO) PTESetup(base sim.PageID) {
	if !f.list.Has(base) {
		f.list.PushTail(base)
	}
}

// Victim implements Policy: the oldest resident page.
func (f *FIFO) Victim() (sim.PageID, bool) { return f.list.PopHead() }

// Remove implements Policy.
func (f *FIFO) Remove(base sim.PageID) { f.list.Remove(base) }

// Tick implements Policy (no periodic work).
func (f *FIFO) Tick(sim.Cycles) {}

// NextTick implements Deadline: Tick has no work, ever.
func (*FIFO) NextTick() sim.Cycles { return Never }

// Resident implements Policy.
func (f *FIFO) Resident() int { return f.list.Len() }
