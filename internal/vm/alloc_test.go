package vm

import (
	"testing"

	"cmcp/internal/sim"
)

// These tests are the allocation-regression guard for the dense
// rewrite: the TLB-hit path, a steady-state fault+eviction cycle and
// the accessed-bit scanner must never touch the heap. A regression here
// silently costs more than most logic bugs, so it fails the build.

// TestAccessTLBHitPathZeroAllocs covers reads and writes on the TLB-hit
// path, both for a page inside the sized range (under PSPT, the
// accessed/dirty summary answers without a walk) and for one past it
// (the summary does not track it, so every touch walks). Pages is 64,
// so vpn 200 lies past it.
func TestAccessTLBHitPathZeroAllocs(t *testing.T) {
	for _, kind := range []TableKind{PSPTKind, RegularPT} {
		t.Run(kind.String(), func(t *testing.T) {
			for _, vpn := range []sim.PageID{3, 200} {
				m, err := NewManager(Config{
					Cores: 2, Frames: 64, PageSize: sim.Size4k, Tables: kind, Pages: 64,
				}, fifoFactory)
				if err != nil {
					t.Fatal(err)
				}
				now := mustAccess(t, m, 0, vpn, true, 0) // fault the page in
				for _, write := range []bool{false, true} {
					avg := testing.AllocsPerRun(500, func() {
						now, _ = m.Access(0, vpn, write, now)
					})
					if avg != 0 {
						t.Errorf("vpn %d write=%v: TLB-hit access allocates %.1f objects, want 0", vpn, write, avg)
					}
				}
			}
		})
	}
}

func TestSteadyStateFaultPathAllocsBounded(t *testing.T) {
	m, err := NewManager(Config{
		Cores: 1, Frames: 8, PageSize: sim.Size4k, Tables: PSPTKind, Pages: 64,
	}, fifoFactory)
	if err != nil {
		t.Fatal(err)
	}
	// 16 pages cycled through 8 frames under FIFO: every access is a
	// major fault with an eviction and a dirty write-back.
	var now sim.Cycles
	page := 0
	touch := func() {
		now, _ = m.Access(0, sim.PageID(page%16), true, now)
		page++
	}
	for i := 0; i < 64; i++ {
		touch() // prime: backing-store entries, slabs, mapping store
	}
	avg := testing.AllocsPerRun(200, touch)
	if avg != 0 {
		t.Errorf("steady-state fault allocates %.2f objects/op, want 0", avg)
	}
}

// TestScanAccessedZeroAllocs guards the scanner path the access-bit
// policies (LRU, CLOCK, LFU) drive on every Tick: testing and clearing
// a page shared by two cores must walk the sharer set in place.
func TestScanAccessedZeroAllocs(t *testing.T) {
	m, err := NewManager(Config{
		Cores: 2, Frames: 64, PageSize: sim.Size4k, Tables: PSPTKind, Pages: 64,
	}, fifoFactory)
	if err != nil {
		t.Fatal(err)
	}
	now := mustAccess(t, m, 0, 3, true, 0)
	now = mustAccess(t, m, 1, 3, false, now)
	if n := m.CoreMapCount(3); n != 2 {
		t.Fatalf("page 3 mapped by %d cores, want 2", n)
	}
	avg := testing.AllocsPerRun(500, func() {
		now, _ = m.Access(0, 3, false, now) // re-set the accessed bit
		m.ScanAccessed(3)
	})
	if avg != 0 {
		t.Errorf("ScanAccessed allocates %.2f objects/call, want 0", avg)
	}
}
