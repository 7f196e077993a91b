package vm

import (
	"testing"

	"cmcp/internal/sim"
	"cmcp/internal/stats"
)

func newAdaptiveMgr(t *testing.T, cores, frames int) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		Cores:    cores,
		Frames:   frames,
		PageSize: sim.Size4k,
		Tables:   PSPTKind,
		Adaptive: true,
		Verify:   true,
	}, fifoFactory)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAdaptiveColdBlockGets2M(t *testing.T) {
	m := newAdaptiveMgr(t, 1, 2048)
	m.Access(0, 100, false, 0)
	// The first fault in a quiet block with free memory maps 2 MB.
	_, size, ok := m.as.Lookup(0, 100)
	if !ok || size != sim.Size2M {
		t.Fatalf("cold fault mapped %v, want 2MB", size)
	}
	// Everything else in the block is now a hit: no further faults.
	m.Access(0, 511, false, 0)
	if got := m.Run().Get(0, stats.PageFaults); got != 1 {
		t.Errorf("faults = %d, want 1", got)
	}
}

func TestAdaptiveLowFreeMemoryAvoids2M(t *testing.T) {
	// Device with 600 frames: the first 2 MB mapping eats 512, leaving
	// 88 — the next fault must not attempt another 2 MB carve.
	m := newAdaptiveMgr(t, 1, 600)
	m.Access(0, 0, false, 0)
	m.Access(0, 600, false, 0) // second block; free = 88 < 512
	_, size, ok := m.as.Lookup(0, 600)
	if !ok {
		t.Fatal("not mapped")
	}
	if size == sim.Size2M {
		t.Error("2MB chosen with insufficient free frames")
	}
	if got := m.Run().Get(0, stats.Evictions); got != 0 {
		t.Errorf("evictions = %d, want 0 (no compaction storm)", got)
	}
}

func TestAdaptiveHotBlockDemotesTo4k(t *testing.T) {
	m := newAdaptiveMgr(t, 1, 64)
	// Hammer faults into block 0 by cycling far more pages than fit,
	// all inside one 2 MB block (64 frames << 512 so 2 MB never fits;
	// the adapter must step down and, as faults accumulate past the
	// 4 kB threshold, map individual pages).
	var now sim.Cycles
	for i := 0; i < 200; i++ {
		now = mustAccess(t, m, 0, sim.PageID((i*17)%512), false, now)
	}
	_, size, ok := m.as.Lookup(0, sim.PageID((199*17)%512))
	if !ok {
		t.Fatal("last page not mapped")
	}
	if size != sim.Size4k {
		t.Errorf("hot churning block mapped %v, want 4kB", size)
	}
}

func TestAdaptiveMixedSizesCoexist(t *testing.T) {
	m := newAdaptiveMgr(t, 2, 2048)
	m.Access(0, 0, false, 0) // block 0: 2MB
	// Make block 1 look hot so it demotes.
	for i := 0; i < 60; i++ {
		*m.adapter.blockAt(512 >> blockShift)++
	}
	m.Access(1, 700, true, 0) // block 1: should be 4k now
	_, s0, _ := m.as.Lookup(0, 0)
	_, s1, ok := m.as.Lookup(1, 700)
	if !ok || s0 != sim.Size2M || s1 != sim.Size4k {
		t.Errorf("sizes = %v, %v; want 2MB and 4kB", s0, s1)
	}
	if m.Resident() != 2 {
		t.Errorf("resident = %d", m.Resident())
	}
}

func TestAdapterResidencyCountersBalance(t *testing.T) {
	a := newSizeAdapter(1024, nil)
	a.mapped(0, sim.Size2M)
	a.mapped(512, sim.Size64k)
	a.mapped(528, sim.Size4k)
	if a.resInBlock[0] != 1 || a.resInBlock[512>>blockShift] != 2 {
		t.Errorf("block counters: %v", a.resInBlock)
	}
	if a.resInGroup[0] != 1 || a.resInGroup[496>>groupShift] != 1 {
		t.Errorf("2M mapping must cover its groups: %v", a.resInGroup[496>>groupShift])
	}
	a.unmapped(0, sim.Size2M)
	a.unmapped(512, sim.Size64k)
	a.unmapped(528, sim.Size4k)
	for b, v := range a.resInBlock {
		if v != 0 {
			t.Errorf("block %d count %d after full unmap", b, v)
		}
	}
	for g, v := range a.resInGroup {
		if v != 0 {
			t.Errorf("group %d count %d after full unmap", g, v)
		}
	}
}

func TestAdapterDecay(t *testing.T) {
	a := newSizeAdapter(1024, nil)
	a.blockFaults[0] = 40
	a.blockFaults[512>>blockShift] = 1
	a.recentEvictions = 8
	a.tick(adaptDecayPeriod)
	if a.blockFaults[0] != 20 {
		t.Errorf("decay: %d", a.blockFaults[0])
	}
	if a.blockFaults[512>>blockShift] != 0 {
		t.Error("single-fault entry must be forgotten")
	}
	if a.recentEvictions != 4 {
		t.Errorf("eviction pressure decay: %d", a.recentEvictions)
	}
	// Before the period: no decay.
	a.tick(adaptDecayPeriod + 1)
	if a.blockFaults[0] != 20 {
		t.Error("premature decay")
	}
}

func TestAdaptiveContentIntegrity(t *testing.T) {
	// Verify mode panics on corruption; thrash mixed sizes with writes.
	m := newAdaptiveMgr(t, 2, 64)
	var now sim.Cycles
	for i := 0; i < 300; i++ {
		core := sim.CoreID(i % 2)
		now = mustAccess(t, m, core, sim.PageID((i*31)%200), i%3 == 0, now)
	}
	if m.Run().Total(stats.WriteBacks) == 0 {
		t.Error("expected write-backs under thrash")
	}
}
