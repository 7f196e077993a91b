package vm

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
)

func fifoFactory(policy.Host) policy.Policy { return policy.NewFIFO() }

// mustAccess is Access for tests that do not exercise the error paths.
func mustAccess(t *testing.T, m *Manager, core sim.CoreID, vpn sim.PageID, write bool, now sim.Cycles) sim.Cycles {
	t.Helper()
	done, err := m.Access(core, vpn, write, now)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

func newMgr(t *testing.T, cores, frames int, kind TableKind, size sim.PageSize) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		Cores:    cores,
		Frames:   frames,
		PageSize: size,
		Tables:   kind,
		Verify:   true,
	}, fifoFactory)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(Config{Cores: 0, Frames: 4}, fifoFactory); err == nil {
		t.Error("zero cores must fail")
	}
	if _, err := NewManager(Config{Cores: 1, Frames: 8, PageSize: sim.Size64k}, fifoFactory); err == nil {
		t.Error("frames < one mapping must fail")
	}
}

func TestFirstAccessFaultsSecondHits(t *testing.T) {
	m := newMgr(t, 2, 16, PSPTKind, sim.Size4k)
	t1 := mustAccess(t, m, 0, 5, false, 0)
	if t1 == 0 {
		t.Fatal("access must cost cycles")
	}
	r := m.Run()
	if r.Get(0, stats.PageFaults) != 1 {
		t.Errorf("faults = %d", r.Get(0, stats.PageFaults))
	}
	if r.Get(0, stats.DTLBMisses) != 1 {
		t.Errorf("dtlb misses = %d", r.Get(0, stats.DTLBMisses))
	}
	// Second access: TLB hit, only compute cost.
	t2 := mustAccess(t, m, 0, 5, false, t1)
	if t2-t1 != sim.DefaultCostModel().TouchCompute {
		t.Errorf("TLB hit cost = %d, want %d", t2-t1, sim.DefaultCostModel().TouchCompute)
	}
	if r.Get(0, stats.PageFaults) != 1 {
		t.Error("no second fault expected")
	}
	if m.Resident() != 1 || m.Policy().Resident() != 1 {
		t.Error("bookkeeping mismatch")
	}
}

func TestPSPTMinorFaultOnSecondCore(t *testing.T) {
	m := newMgr(t, 2, 16, PSPTKind, sim.Size4k)
	m.Access(0, 5, false, 0)
	m.Access(1, 5, false, 0)
	r := m.Run()
	if r.Get(1, stats.PageFaults) != 0 {
		t.Error("second core must not take a major fault")
	}
	if r.Get(1, stats.MinorFaults) != 1 {
		t.Errorf("minor faults = %d", r.Get(1, stats.MinorFaults))
	}
	if m.CoreMapCount(5) != 2 {
		t.Errorf("core-map count = %d", m.CoreMapCount(5))
	}
}

// TestPSPTSecondFaulterQueuesOnResidentLock pins the page-lock model:
// the first faulter maps the page before it takes the page's lock, so
// a second core faulting the same page in the meantime finds the page
// resident, takes a minor fault and waits on the resident mapping's
// lock. PSPT keeps no lock for absent pages.
func TestPSPTSecondFaulterQueuesOnResidentLock(t *testing.T) {
	m := newMgr(t, 2, 16, PSPTKind, sim.Size4k)
	first := mustAccess(t, m, 0, 5, false, 0)
	second := mustAccess(t, m, 1, 5, false, 0)
	r := m.Run()
	if r.Get(1, stats.PageFaults) != 0 || r.Get(1, stats.MinorFaults) != 1 {
		t.Fatalf("second core: %d major, %d minor faults, want 0 and 1",
			r.Get(1, stats.PageFaults), r.Get(1, stats.MinorFaults))
	}
	if w := r.Get(1, stats.LockWaitCycles); w == 0 {
		t.Error("second faulter must wait on the page's lock")
	}
	if second <= first {
		t.Errorf("second faulter done at %d, not after the first (%d)", second, first)
	}
}

func TestRegularPTNoMinorFault(t *testing.T) {
	m := newMgr(t, 2, 16, RegularPT, sim.Size4k)
	m.Access(0, 5, false, 0)
	m.Access(1, 5, false, 0)
	r := m.Run()
	if r.Get(1, stats.PageFaults) != 0 || r.Get(1, stats.MinorFaults) != 0 {
		t.Error("shared PTE must be visible to core 1 without any fault")
	}
	if m.CoreMapCount(5) != -1 {
		t.Error("regular tables cannot know the core-map count")
	}
}

func TestEvictionPSPTPreciseShootdown(t *testing.T) {
	// 4 frames; cores 0 and 1 share page 0; pages 1..3 private to 0.
	m := newMgr(t, 3, 4, PSPTKind, sim.Size4k)
	m.Access(0, 0, false, 0)
	m.Access(1, 0, false, 0)
	for v := sim.PageID(1); v < 4; v++ {
		m.Access(0, v, false, 0)
	}
	// Next fault evicts FIFO head = page 0, mapped by cores 0 and 1.
	m.Access(2, 100, false, 0)
	r := m.Run()
	if r.Get(2, stats.Evictions) != 1 {
		t.Fatalf("evictions = %d", r.Get(2, stats.Evictions))
	}
	// Precise shootdown: exactly cores 0 and 1 get invalidations;
	// core 2 (the evictor) pays none.
	if r.Get(0, stats.RemoteTLBInvalidations) != 1 || r.Get(1, stats.RemoteTLBInvalidations) != 1 {
		t.Errorf("remote invals = %d,%d, want 1,1",
			r.Get(0, stats.RemoteTLBInvalidations), r.Get(1, stats.RemoteTLBInvalidations))
	}
	if r.Get(2, stats.RemoteTLBInvalidations) != 0 {
		t.Error("evictor must not count a remote invalidation")
	}
	if r.Get(2, stats.IPIsSent) != 2 {
		t.Errorf("IPIs sent = %d, want 2", r.Get(2, stats.IPIsSent))
	}
	// Targets must have pending interrupt debt.
	if m.TakeDebt(0) == 0 || m.TakeDebt(1) == 0 {
		t.Error("IPI targets must accrue debt")
	}
	if m.TakeDebt(2) != 0 {
		t.Error("evictor has no debt")
	}
	if m.TakeDebt(0) != 0 {
		t.Error("TakeDebt must drain")
	}
}

func TestEvictionRegularPTBroadcast(t *testing.T) {
	m := newMgr(t, 4, 2, RegularPT, sim.Size4k)
	m.Access(0, 0, false, 0)
	m.Access(0, 1, false, 0)
	m.Access(0, 2, false, 0) // evicts page 0: broadcast to all 4 cores
	r := m.Run()
	// All cores except the evictor receive an invalidation request.
	for c := sim.CoreID(1); c < 4; c++ {
		if r.Get(c, stats.RemoteTLBInvalidations) != 1 {
			t.Errorf("core %d remote invals = %d, want 1 (broadcast)",
				c, r.Get(c, stats.RemoteTLBInvalidations))
		}
	}
	if r.Get(0, stats.IPIsSent) != 3 {
		t.Errorf("IPIs sent = %d, want 3", r.Get(0, stats.IPIsSent))
	}
}

func TestEvictedPageRefaults(t *testing.T) {
	m := newMgr(t, 1, 2, PSPTKind, sim.Size4k)
	m.Access(0, 0, false, 0)
	m.Access(0, 1, false, 0)
	m.Access(0, 2, false, 0) // evicts 0
	r := m.Run()
	if r.Get(0, stats.Evictions) != 1 {
		t.Fatal("eviction expected")
	}
	m.Access(0, 0, false, 0) // refault
	if r.Get(0, stats.PageFaults) != 4 {
		t.Errorf("faults = %d, want 4", r.Get(0, stats.PageFaults))
	}
}

func TestDirtyWriteBackAndIntegrity(t *testing.T) {
	m := newMgr(t, 1, 2, PSPTKind, sim.Size4k)
	m.Access(0, 0, true, 0) // write: dirty
	m.Access(0, 1, false, 0)
	m.Access(0, 2, false, 0) // evicts page 0, dirty → write-back
	r := m.Run()
	if r.Get(0, stats.WriteBacks) != 1 {
		t.Fatalf("write-backs = %d", r.Get(0, stats.WriteBacks))
	}
	if r.Get(0, stats.BytesOut) != sim.PageSize4k {
		t.Errorf("bytes out = %d", r.Get(0, stats.BytesOut))
	}
	c := m.Checker()
	content, ok := c.host[0]
	if !ok || content == 0 {
		t.Fatal("host must hold the written content")
	}
	// Refault page 0 (evicting page 1): the Checker compares the host
	// copy with what was stored and installs it in the frame.
	mustAccess(t, m, 0, 0, false, 0)
	if c.frames[mustFrame(t, m, 0, 0)] != content {
		t.Error("page-in restored wrong content")
	}
	// Evict page 0 again, clean this time, and tamper with its host
	// copy: the next page-in must fail the run.
	mustAccess(t, m, 0, 1, false, 0) // evicts page 2
	mustAccess(t, m, 0, 3, false, 0) // evicts page 0
	if _, _, ok := m.Lookup(0, 0); ok {
		t.Fatal("page 0 still resident")
	}
	c.SetHost(0, uint64(content)^1)
	if _, err := m.Access(0, 0, false, 0); !errors.Is(err, ErrCorruption) {
		t.Fatalf("page-in of tampered content: err = %v, want ErrCorruption", err)
	}
}

func mustFrame(t *testing.T, m *Manager, core sim.CoreID, vpn sim.PageID) sim.FrameID {
	t.Helper()
	pte, size, ok := m.Lookup(core, vpn)
	if !ok {
		t.Fatalf("vpn %d not mapped", vpn)
	}
	if size == sim.Size2M {
		return sim.FrameID(pte.PFN() + int64(vpn-sim.Size2M.Align(vpn)))
	}
	return sim.FrameID(pte.PFN()) // 64k member PTEs carry the member frame
}

func TestCleanEvictionNoWriteBack(t *testing.T) {
	m := newMgr(t, 1, 2, PSPTKind, sim.Size4k)
	m.Access(0, 0, false, 0)
	m.Access(0, 1, false, 0)
	m.Access(0, 2, false, 0)
	if m.Run().Get(0, stats.WriteBacks) != 0 {
		t.Error("clean page must not write back")
	}
	if n := len(m.Checker().host); n != 0 {
		t.Errorf("host holds %d pages, want none", n)
	}
}

func TestContentSurvivesManySwapCycles(t *testing.T) {
	// Thrash two pages through one spare frame with writes; Verify
	// mode panics on any corruption.
	m := newMgr(t, 1, 2, PSPTKind, sim.Size4k)
	var now sim.Cycles
	for i := 0; i < 50; i++ {
		now = mustAccess(t, m, 0, sim.PageID(i%3), true, now)
	}
	if m.Run().Get(0, stats.WriteBacks) == 0 {
		t.Error("thrashing writes must produce write-backs")
	}
}

func Test64kPageFaultMapsGroup(t *testing.T) {
	m := newMgr(t, 2, 64, PSPTKind, sim.Size64k)
	m.Access(0, 20, false, 0) // inside group [16,32)
	r := m.Run()
	if r.Get(0, stats.PageFaults) != 1 {
		t.Fatalf("faults = %d", r.Get(0, stats.PageFaults))
	}
	if r.Get(0, stats.BytesIn) != sim.PageSize64k {
		t.Errorf("bytes in = %d, want 64k", r.Get(0, stats.BytesIn))
	}
	// Whole group resident: any member access is a TLB hit (one entry).
	t0 := sim.Cycles(1_000_000)
	t1 := mustAccess(t, m, 0, 31, false, t0)
	if t1-t0 != sim.DefaultCostModel().TouchCompute {
		t.Errorf("member access cost = %d, want pure compute", t1-t0)
	}
	// Second core: minor fault for the whole group.
	m.Access(1, 16, false, 0)
	if r.Get(1, stats.MinorFaults) != 1 || r.Get(1, stats.PageFaults) != 0 {
		t.Error("group minor fault")
	}
	if m.CoreMapCount(20) != 2 {
		t.Error("group core-map count")
	}
}

func Test64kEvictionFreesWholeGroup(t *testing.T) {
	m := newMgr(t, 1, 32, PSPTKind, sim.Size64k) // 2 group slots
	m.Access(0, 0, true, 0)
	m.Access(0, 16, false, 0)
	m.Access(0, 32, false, 0) // evicts group [0,16)
	r := m.Run()
	if r.Get(0, stats.Evictions) != 1 {
		t.Fatalf("evictions = %d", r.Get(0, stats.Evictions))
	}
	if r.Get(0, stats.BytesOut) != sim.PageSize64k {
		t.Errorf("bytes out = %d, want full 64k write-back", r.Get(0, stats.BytesOut))
	}
	if m.Device().FreeFrames() != 0 {
		t.Errorf("free frames = %d, want 0 (two groups resident)", m.Device().FreeFrames())
	}
	if m.Resident() != 2 {
		t.Errorf("resident = %d", m.Resident())
	}
}

func Test2MPageFault(t *testing.T) {
	m, err := NewManager(Config{
		Cores: 1, Frames: 512, PageSize: sim.Size2M, Tables: PSPTKind, Verify: true,
	}, fifoFactory)
	if err != nil {
		t.Fatal(err)
	}
	m.Access(0, 700, true, 0) // inside region [512,1024)
	r := m.Run()
	if r.Get(0, stats.PageFaults) != 1 {
		t.Fatal("2M fault")
	}
	if r.Get(0, stats.BytesIn) != sim.PageSize2M {
		t.Errorf("bytes in = %d", r.Get(0, stats.BytesIn))
	}
	// Neighbouring member is a TLB hit.
	t0 := sim.Cycles(1 << 30)
	t1 := mustAccess(t, m, 0, 600, false, t0)
	if t1-t0 != sim.DefaultCostModel().TouchCompute {
		t.Error("2M member must hit TLB")
	}
	// Eviction by the second region.
	m.Access(0, 1100, false, 0)
	if r.Get(0, stats.Evictions) != 1 {
		t.Error("2M eviction")
	}
	if r.Get(0, stats.BytesOut) != sim.PageSize2M {
		t.Errorf("bytes out = %d", r.Get(0, stats.BytesOut))
	}
}

func TestRegularPTEvictionCostsBroadcast(t *testing.T) {
	// An eviction under regular tables must pay the IPI loop over all
	// cores even when only the evictor ever touched the victim; PSPT
	// pays only a local invalidation. Compare the fault completion
	// times of an identical eviction scenario.
	scenario := func(kind TableKind) sim.Cycles {
		m := newMgr(t, 4, 2, kind, sim.Size4k)
		m.Access(0, 0, false, 0)
		m.Access(0, 1, false, 0)
		return mustAccess(t, m, 0, 2, false, 1_000_000) // evicts page 0
	}
	reg := scenario(RegularPT)
	ps := scenario(PSPTKind)
	cost := sim.DefaultCostModel()
	minGap := cost.ShootdownInitiatorCost(3) / 2
	if reg < ps+minGap {
		t.Errorf("regular PT eviction finish %d must exceed PSPT %d by ≥%d (broadcast IPI loop)",
			reg, ps, minGap)
	}
}

func TestScanAccessedChargesScannerAndTargets(t *testing.T) {
	m := newMgr(t, 2, 16, PSPTKind, sim.Size4k)
	m.Access(0, 5, false, 0)
	if m.TakeScanCost() != 0 {
		t.Error("no scan cost yet")
	}
	// The page was just touched: accessed bit set.
	if !m.ScanAccessed(5) {
		t.Fatal("accessed must be reported")
	}
	if m.TakeScanCost() == 0 {
		t.Error("scan must cost scanner cycles")
	}
	r := m.Run()
	if r.Get(0, stats.RemoteTLBInvalidations) != 1 {
		t.Error("clearing the bit must invalidate the mapping core")
	}
	if m.TakeDebt(0) == 0 {
		t.Error("target core must take the interrupt")
	}
	// Second scan: bit clear, no shootdown.
	if m.ScanAccessed(5) {
		t.Error("bit was cleared")
	}
	if r.Get(0, stats.RemoteTLBInvalidations) != 1 {
		t.Error("idle scan must not invalidate")
	}
}

func TestSharingHistogramAvailability(t *testing.T) {
	ps := newMgr(t, 2, 16, PSPTKind, sim.Size4k)
	ps.Access(0, 1, false, 0)
	ps.Access(1, 1, false, 0)
	ps.Access(0, 2, false, 0)
	h, ok := ps.SharingHistogram()
	if !ok {
		t.Fatal("PSPT must expose the histogram")
	}
	if h[1] != 1 || h[2] != 1 {
		t.Errorf("histogram = %v", h)
	}
	reg := newMgr(t, 2, 16, RegularPT, sim.Size4k)
	if _, ok := reg.SharingHistogram(); ok {
		t.Error("regular tables have no histogram")
	}
}

func TestManagerInvariantsProperty(t *testing.T) {
	// Property: under random access streams, resident mappings * span
	// never exceed device frames, policy and address-space agree, and
	// the Verify checker never trips (content integrity), at every page
	// size. Each size has room for a few mappings and a page space four
	// times larger, so write-backs happen.
	f := func(ops []uint16, kindRaw, sizeRaw uint8) bool {
		kind := RegularPT
		if kindRaw%2 == 1 {
			kind = PSPTKind
		}
		size := sim.Size4k
		frames := 8
		pageSpace := sim.PageID(64)
		switch sizeRaw % 3 {
		case 1:
			size = sim.Size64k
			frames = 64
			pageSpace = 256
		case 2:
			size = sim.Size2M
			frames = 2 * sim.Span2M
			pageSpace = 8 * sim.Span2M
		}
		m, err := NewManager(Config{
			Cores: 3, Frames: frames, PageSize: size, Tables: kind, Verify: true,
		}, fifoFactory)
		if err != nil {
			return false
		}
		var now sim.Cycles
		for _, op := range ops {
			core := sim.CoreID(op % 3)
			vpn := sim.PageID(op>>2) % pageSpace
			write := op&0x8000 != 0
			var accErr error
			now, accErr = m.Access(core, vpn, write, now)
			if accErr != nil {
				return false
			}
			if m.Resident() != m.Policy().Resident() {
				return false
			}
			if m.Resident()*int(size.Span()) > frames {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(119))}); err != nil {
		t.Error(err)
	}
}
