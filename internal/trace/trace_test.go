package trace

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/workload"
)

func captureSmall(t *testing.T) *Trace {
	t.Helper()
	layout, err := workload.SCALE().Scale(0.02).Build(4)
	if err != nil {
		t.Fatal(err)
	}
	return Capture(layout, 7)
}

func TestCaptureCoversStreams(t *testing.T) {
	tr := captureSmall(t)
	if tr.Cores != 4 {
		t.Errorf("cores = %d", tr.Cores)
	}
	if len(tr.Records) == 0 {
		t.Fatal("empty trace")
	}
	perCore := make(map[sim.CoreID]int)
	for _, r := range tr.Records {
		perCore[r.Core]++
	}
	if len(perCore) != 4 {
		t.Errorf("cores seen = %d", len(perCore))
	}
}

func TestMaxVPN(t *testing.T) {
	tr := &Trace{Cores: 1, Records: []Record{{VPN: 5}, {VPN: 99}, {VPN: 7}}}
	if tr.MaxVPN() != 99 {
		t.Errorf("MaxVPN = %d", tr.MaxVPN())
	}
}

// referenceOPT is a brute-force Belady implementation for validation.
func referenceOPT(refs []sim.PageID, capacity int) uint64 {
	resident := make(map[sim.PageID]bool)
	var faults uint64
	for i, p := range refs {
		if resident[p] {
			continue
		}
		faults++
		if len(resident) >= capacity {
			// Evict the resident page with the farthest next use.
			var victim sim.PageID
			best := -1
			for q := range resident {
				next := len(refs) + 1
				for j := i + 1; j < len(refs); j++ {
					if refs[j] == q {
						next = j
						break
					}
				}
				if next > best || (next == best && q < victim) {
					best = next
					victim = q
				}
			}
			delete(resident, victim)
		}
		resident[p] = true
	}
	return faults
}

func TestOPTMatchesBruteForce(t *testing.T) {
	f := func(raw []uint8, cap8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		capacity := int(cap8%6) + 1
		tr := &Trace{Cores: 1}
		refs := make([]sim.PageID, len(raw))
		for i, v := range raw {
			vpn := sim.PageID(v % 12)
			refs[i] = vpn
			tr.Records = append(tr.Records, Record{VPN: vpn})
		}
		res, err := OPT(tr, capacity, sim.Size4k)
		if err != nil {
			return false
		}
		return res.Faults == referenceOPT(refs, capacity)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(118))}); err != nil {
		t.Error(err)
	}
}

func TestOPTClassicSequence(t *testing.T) {
	// The textbook Belady example: 1,2,3,4,1,2,5,1,2,3,4,5 at capacity
	// 3 gives 7 faults under OPT.
	seq := []sim.PageID{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5}
	tr := &Trace{Cores: 1}
	for _, p := range seq {
		tr.Records = append(tr.Records, Record{VPN: p})
	}
	res, err := OPT(tr, 3, sim.Size4k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != 7 {
		t.Errorf("OPT faults = %d, want 7", res.Faults)
	}
	if res.Distinct != 5 || res.Accesses != 12 {
		t.Errorf("distinct=%d accesses=%d", res.Distinct, res.Accesses)
	}
	if !strings.Contains(res.String(), "7 faults") {
		t.Error("String rendering")
	}
}

func TestOPTErrors(t *testing.T) {
	if _, err := OPT(&Trace{Cores: 1}, 0, sim.Size4k); err == nil {
		t.Error("zero capacity must fail")
	}
}

func TestOPTMappingGranularity(t *testing.T) {
	// At 64 kB granularity, pages 0..15 are one mapping: a sweep over
	// them is one fault.
	tr := &Trace{Cores: 1}
	for v := sim.PageID(0); v < 16; v++ {
		tr.Records = append(tr.Records, Record{VPN: v})
	}
	res, err := OPT(tr, 4, sim.Size64k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != 1 || res.Distinct != 1 {
		t.Errorf("faults=%d distinct=%d, want 1/1", res.Faults, res.Distinct)
	}
}

func TestCountFaultsFIFOVsOPT(t *testing.T) {
	tr := captureSmall(t)
	capacity := 64
	opt, err := OPT(tr, capacity, sim.Size4k)
	if err != nil {
		t.Fatal(err)
	}
	fifoFaults, err := CountFaults(tr, capacity, sim.Size4k, policy.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	if fifoFaults < opt.Faults {
		t.Errorf("FIFO %d faults beats OPT %d — impossible", fifoFaults, opt.Faults)
	}
	if opt.Faults == 0 {
		t.Error("constrained replay must fault")
	}
}

func TestCountFaultsErrors(t *testing.T) {
	tr := captureSmall(t)
	if _, err := CountFaults(tr, 0, sim.Size4k, policy.NewFIFO()); err == nil {
		t.Error("zero capacity must fail")
	}
	if _, err := CountFaults(tr, 8, sim.Size4k, badPolicy{}); err == nil {
		t.Error("lying policy must be detected")
	}
}

// badPolicy claims victims that are not resident.
type badPolicy struct{}

func (badPolicy) PTESetup(sim.PageID) {}
func (badPolicy) Victim() (sim.PageID, bool) {
	return 1 << 40, true
}

func TestTrueLRUBeatsFIFOOnSkewedTrace(t *testing.T) {
	tr := captureSmall(t)
	capacity := 64
	lru, err := CountFaults(tr, capacity, sim.Size4k, NewTrueLRU())
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := CountFaults(tr, capacity, sim.Size4k, policy.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := OPT(tr, capacity, sim.Size4k)
	if err != nil {
		t.Fatal(err)
	}
	if lru >= fifo {
		t.Errorf("true LRU (%d) should beat FIFO (%d) on the skewed trace", lru, fifo)
	}
	if lru < opt.Faults {
		t.Errorf("true LRU (%d) cannot beat OPT (%d)", lru, opt.Faults)
	}
}

func TestTrueLRUExactOrder(t *testing.T) {
	l := NewTrueLRU()
	for _, p := range []sim.PageID{1, 2, 3, 1} { // 1 refreshed
		l.PTESetup(p)
	}
	v, ok := l.Victim()
	if !ok || v != 2 {
		t.Errorf("Victim = %d, want 2 (LRU order 2,3,1)", v)
	}
}
