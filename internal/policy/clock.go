package policy

import (
	"cmcp/internal/dense"
	"cmcp/internal/sim"
)

// Clock implements the classic second-chance CLOCK algorithm. The hand
// sweeps the resident pages in residence order; a page whose accessed
// bit is set gets a second chance (bit cleared, hand advances), an
// unaccessed page is evicted. Clearing the bit goes through
// Host.ScanAccessed and therefore pays the same remote-TLB-invalidation
// price as LRU — the paper's §3 argues CLOCK suffers the same disease,
// and this implementation lets the experiments demonstrate it.
type Clock struct {
	host Host
	list *dense.List // head = hand position
}

// NewClock returns a CLOCK policy backed by host for access bits.
func NewClock(host Host) *Clock { return NewClockIn(host, nil, 0) }

// NewClockIn is NewClock with the list pre-sized for page bases in
// [0, hint). The second argument is ignored.
func NewClockIn(host Host, _ *dense.Scratch, hint int) *Clock {
	return &Clock{host: host, list: dense.NewList(hint)}
}

// Name implements Policy.
func (c *Clock) Name() string { return "CLOCK" }

// PTESetup implements Policy.
func (c *Clock) PTESetup(base sim.PageID) {
	if !c.list.Has(base) {
		c.list.PushTail(base)
	}
}

// Victim implements Policy: sweep from the hand, granting second
// chances, evicting the first unaccessed page. After a full lap every
// bit has been cleared, so the lap is bounded.
func (c *Clock) Victim() (sim.PageID, bool) {
	n := c.list.Len()
	if n == 0 {
		return 0, false
	}
	for i := 0; i <= n; i++ {
		base, ok := c.list.PopHead()
		if !ok {
			return 0, false
		}
		if c.host.ScanAccessed(base) {
			c.list.PushTail(base) // second chance
			continue
		}
		return base, true
	}
	// Every page was re-accessed during the sweep; fall back to the
	// current hand position.
	return c.list.PopHead()
}

// Remove implements Policy.
func (c *Clock) Remove(base sim.PageID) { c.list.Remove(base) }

// Tick implements Policy (CLOCK scans at eviction time, not on a timer).
func (c *Clock) Tick(sim.Cycles) {}

// NextTick implements Deadline: Tick has no work, ever.
func (*Clock) NextTick() sim.Cycles { return Never }

// Resident implements Policy.
func (c *Clock) Resident() int { return c.list.Len() }
