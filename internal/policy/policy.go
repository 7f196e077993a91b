// Package policy defines the page replacement policy interface of the
// simulated kernel and the baseline implementations the paper compares
// against: FIFO, a Linux-style LRU approximation (active/inactive lists
// driven by periodic access-bit scanning), CLOCK, LFU and Random.
//
// The policies operate on resident *mappings*, identified by their
// size-aligned base VPN. They never see individual memory touches —
// on real hardware the OS only observes page faults and PTE accessed
// bits, and collecting the latter is precisely the overhead the paper
// measures. Policies that need usage statistics obtain them through
// Host.ScanAccessed, whose implementation (in package vm) charges the
// scan cost and the remote TLB invalidations it causes.
//
// The paper's own policy, CMCP, lives in internal/core.
package policy

import (
	"math"

	"cmcp/internal/sim"
)

// Host is the kernel-side interface a policy may consult. It is
// deliberately narrow: the number of mapping cores (free under PSPT)
// and the access-bit scan (expensive everywhere).
type Host interface {
	// CoreMapCount returns the number of cores currently mapping base.
	// Under regular shared page tables this information does not exist
	// and the implementation returns -1.
	CoreMapCount(base sim.PageID) int

	// ScanAccessed tests and clears the accessed bit(s) of the mapping
	// at base, charging the scan cost and the remote TLB invalidations
	// that clearing set bits requires. It reports whether the mapping
	// was accessed since the last scan.
	ScanAccessed(base sim.PageID) bool
}

// Policy is a page replacement policy. Implementations are not safe
// for concurrent use; the event engine serializes calls.
type Policy interface {
	// Name returns the short policy name used in experiment output.
	Name() string

	// PTESetup notifies the policy that a core has established a PTE
	// for the resident mapping at base: once on the major fault that
	// brought the page in, and again on every later minor fault by an
	// additional core. (Under regular page tables only the major fault
	// is visible — additional cores reuse the shared PTE silently.)
	PTESetup(base sim.PageID)

	// Victim selects the mapping to evict and removes it from the
	// policy's bookkeeping. ok is false when nothing is tracked.
	Victim() (base sim.PageID, ok bool)

	// Remove deletes base from the bookkeeping without an eviction
	// decision (explicit unmap, teardown). Unknown pages are ignored.
	Remove(base sim.PageID)

	// Tick advances periodic machinery (LRU's scan timer, CMCP's
	// aging) to virtual time now. The engine calls it from the
	// dedicated scanner pseudo-core.
	Tick(now sim.Cycles)

	// Resident returns the number of mappings currently tracked.
	Resident() int
}

// Deadline is an optional Policy extension that tells the scanner lane
// when the policy next has periodic work. Contract: Tick(now) with
// now < NextTick() changes no state, so the caller may skip it. The
// deadline may only move inside Tick. A policy without the method is
// ticked every time, as if its deadline were always 0.
type Deadline interface {
	NextTick() sim.Cycles
}

// Never is the deadline of a policy whose Tick does nothing.
const Never = sim.Cycles(math.MaxUint64)

// NextTick returns p's Deadline, or 0 (always due) when p has none.
func NextTick(p Policy) sim.Cycles {
	if d, ok := p.(Deadline); ok {
		return d.NextTick()
	}
	return 0
}
