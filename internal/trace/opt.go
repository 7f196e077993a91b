package trace

import (
	"container/heap"
	"fmt"

	"cmcp/internal/dense"
	"cmcp/internal/sim"
)

// This file computes Belady's optimal (MIN/OPT) page fault count for a
// recorded trace: on a fault with full memory, evict the resident
// mapping whose next use lies farthest in the future. OPT needs the
// future, so it exists only offline — it is the clairvoyant lower
// bound that quantifies how close FIFO, LRU and CMCP get.

// OPTResult summarizes one OPT analysis.
type OPTResult struct {
	Capacity int    // mapping slots available
	Accesses int    // trace length (in mapping-granular references)
	Faults   uint64 // compulsory + capacity misses
	Distinct int    // distinct mappings referenced
}

// FaultRatio returns faults per access.
func (r OPTResult) FaultRatio() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Faults) / float64(r.Accesses)
}

// String renders the analysis compactly.
func (r OPTResult) String() string {
	return fmt.Sprintf("OPT: %d faults / %d accesses (%.2f%%) at capacity %d, %d distinct mappings",
		r.Faults, r.Accesses, 100*r.FaultRatio(), r.Capacity, r.Distinct)
}

// optItem is a resident mapping in the max-heap ordered by next use
// (farthest first).
type optItem struct {
	base    sim.PageID
	nextUse int // index into the reference string; large = far
	pos     int
}

type optHeap []*optItem

func (h optHeap) Len() int           { return len(h) }
func (h optHeap) Less(i, j int) bool { return h[i].nextUse > h[j].nextUse }
func (h optHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].pos = i; h[j].pos = j }
func (h *optHeap) Push(x any)        { it := x.(*optItem); it.pos = len(*h); *h = append(*h, it) }
func (h *optHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return
}

// OPT computes Belady's optimal fault count for the trace at the given
// mapping capacity and page size (accesses collapse to size-aligned
// mapping bases, matching how the simulator manages residency).
// Consecutive references to the same resident mapping count once each
// but cannot fault, exactly as in the simulator.
func OPT(t *Trace, capacity int, size sim.PageSize) (OPTResult, error) {
	if capacity <= 0 {
		return OPTResult{}, fmt.Errorf("trace: OPT capacity %d", capacity)
	}
	// Build the mapping-granular reference string.
	refs := make([]sim.PageID, len(t.Records))
	for i, r := range t.Records {
		refs[i] = size.Align(r.VPN)
	}
	// next[i] = index of the next reference to refs[i] after i.
	next := make([]int, len(refs))
	lastSeen := make(map[sim.PageID]int)
	infinity := len(refs) + 1
	for i := len(refs) - 1; i >= 0; i-- {
		if j, ok := lastSeen[refs[i]]; ok {
			next[i] = j
		} else {
			next[i] = infinity
		}
		lastSeen[refs[i]] = i
	}

	resident := make(map[sim.PageID]*optItem, capacity)
	var h optHeap
	var faults uint64
	for i, base := range refs {
		if it, ok := resident[base]; ok {
			// Hit: refresh the next-use key.
			it.nextUse = next[i]
			heap.Fix(&h, it.pos)
			continue
		}
		faults++
		if len(resident) >= capacity {
			victim := heap.Pop(&h).(*optItem)
			delete(resident, victim.base)
		}
		it := &optItem{base: base, nextUse: next[i]}
		resident[base] = it
		heap.Push(&h, it)
	}
	return OPTResult{
		Capacity: capacity,
		Accesses: len(refs),
		Faults:   faults,
		Distinct: len(lastSeen),
	}, nil
}

// CountingPolicy is the slice of the policy.Policy contract that
// offline fault counting needs: reference notifications and victim
// selection. Every policy.Policy satisfies it.
type CountingPolicy interface {
	PTESetup(base sim.PageID)
	Victim() (sim.PageID, bool)
}

// TrueLRU is an exact least-recently-used policy for offline replay:
// every PTESetup counts as a reference (perfect information, which no
// real kernel has — the online approximation in internal/policy pays
// for its statistics with TLB shootdowns). Implements countingPolicy.
type TrueLRU struct {
	list *dense.List
}

// NewTrueLRU returns an exact-LRU counting policy.
func NewTrueLRU() *TrueLRU { return &TrueLRU{list: dense.NewList(0)} }

// PTESetup implements countingPolicy: record a reference.
func (l *TrueLRU) PTESetup(base sim.PageID) {
	if !l.list.MoveToTail(base) {
		l.list.PushTail(base)
	}
}

// Victim implements countingPolicy: the least recently referenced page.
func (l *TrueLRU) Victim() (sim.PageID, bool) { return l.list.PopHead() }

// CountFaults replays the trace through an online policy, returning its
// fault count at the given capacity and page size.
func CountFaults(t *Trace, capacity int, size sim.PageSize, pol CountingPolicy) (uint64, error) {
	if capacity <= 0 {
		return 0, fmt.Errorf("trace: capacity %d", capacity)
	}
	resident := make(map[sim.PageID]bool, capacity)
	var faults uint64
	for _, r := range t.Records {
		base := size.Align(r.VPN)
		if resident[base] {
			pol.PTESetup(base) // minor notification: another reference
			continue
		}
		faults++
		if len(resident) >= capacity {
			victim, ok := pol.Victim()
			if !ok {
				return 0, fmt.Errorf("trace: policy has no victim with %d resident", len(resident))
			}
			if !resident[victim] {
				return 0, fmt.Errorf("trace: policy evicted non-resident page %d", victim)
			}
			delete(resident, victim)
		}
		resident[base] = true
		pol.PTESetup(base)
	}
	return faults, nil
}
