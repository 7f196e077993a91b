package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cmcp/internal/sim"
)

// countHost serves scripted core-map counts; ScanAccessed must never be
// called — CMCP's defining property.
type countHost struct {
	t      *testing.T
	counts map[sim.PageID]int
}

func newCountHost(t *testing.T) *countHost {
	return &countHost{t: t, counts: make(map[sim.PageID]int)}
}

func (h *countHost) CoreMapCount(base sim.PageID) int {
	if c, ok := h.counts[base]; ok {
		return c
	}
	return 1
}

func (h *countHost) ScanAccessed(base sim.PageID) bool {
	if h.t != nil {
		h.t.Fatalf("CMCP must never scan access bits (page %d)", base)
	}
	return false
}

func TestCMCPName(t *testing.T) {
	c := New(newCountHost(t), 10)
	if c.Name() != "CMCP" || c.P() != DefaultP {
		t.Error("name/p defaults")
	}
}

func TestCMCPInvalidArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { New(newCountHost(nil), -1) },
		func() { New(newCountHost(nil), 10, WithP(-0.1)) },
		func() { New(newCountHost(nil), 10, WithP(1.1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCMCPWithPZeroEqualsFIFO(t *testing.T) {
	// With p converging to 0 the algorithm falls back to plain FIFO
	// (paper §3). Verify eviction order matches insertion order.
	h := newCountHost(t)
	c := New(h, 100, WithP(0))
	h.counts[1] = 50
	h.counts[2] = 1
	h.counts[3] = 30
	for _, p := range []sim.PageID{1, 2, 3} {
		c.PTESetup(p)
	}
	for _, want := range []sim.PageID{1, 2, 3} {
		v, ok := c.Victim()
		if !ok || v != want {
			t.Errorf("Victim = %d, want %d", v, want)
		}
	}
}

func TestCMCPWithPOneAllPrioritized(t *testing.T) {
	// With p approaching 1 all pages are ordered by core-map count.
	h := newCountHost(t)
	c := New(h, 3, WithP(1))
	h.counts[10] = 5
	h.counts[20] = 2
	h.counts[30] = 9
	for _, p := range []sim.PageID{10, 20, 30} {
		c.PTESetup(p)
	}
	fifo, prio := c.Groups()
	if fifo != 0 || prio != 3 {
		t.Fatalf("groups = %d/%d, want 0/3", fifo, prio)
	}
	// Eviction order: ascending core-map count.
	for _, want := range []sim.PageID{20, 10, 30} {
		v, ok := c.Victim()
		if !ok || v != want {
			t.Errorf("Victim = %d, want %d", v, want)
		}
	}
}

func TestCMCPDisplacementOfMinimum(t *testing.T) {
	h := newCountHost(t)
	c := New(h, 2, WithP(0.5)) // priority group holds 1 page
	h.counts[1] = 2
	h.counts[2] = 6
	c.PTESetup(1) // enters priority group (room available)
	c.PTESetup(2) // count 6 > min 2: displaces page 1 to FIFO
	fifo, prio := c.Groups()
	if fifo != 1 || prio != 1 {
		t.Fatalf("groups = %d/%d", fifo, prio)
	}
	v, _ := c.Victim() // FIFO head = displaced page 1
	if v != 1 {
		t.Errorf("Victim = %d, want displaced page 1", v)
	}
	v, _ = c.Victim()
	if v != 2 {
		t.Errorf("Victim = %d, want prioritized page 2", v)
	}
}

func TestCMCPLowCountGoesToFIFO(t *testing.T) {
	h := newCountHost(t)
	c := New(h, 2, WithP(0.5))
	h.counts[1] = 6
	h.counts[2] = 2
	c.PTESetup(1)
	c.PTESetup(2) // count 2 < min 6 and group full: FIFO
	fifo, prio := c.Groups()
	if fifo != 1 || prio != 1 {
		t.Fatalf("groups = %d/%d", fifo, prio)
	}
	v, _ := c.Victim()
	if v != 2 {
		t.Errorf("Victim = %d, want FIFO page 2", v)
	}
}

func TestCMCPPromotionOnLaterSetup(t *testing.T) {
	// A page that entered FIFO gets promoted when additional cores map
	// it and its count now beats the priority minimum.
	h := newCountHost(t)
	c := New(h, 2, WithP(0.5))
	h.counts[1] = 4
	h.counts[2] = 1
	c.PTESetup(1) // prio
	c.PTESetup(2) // fifo (count 1)
	h.counts[2] = 8
	c.PTESetup(2) // another core mapped page 2: promote, displace 1
	fifo, prio := c.Groups()
	if fifo != 1 || prio != 1 {
		t.Fatalf("groups = %d/%d", fifo, prio)
	}
	v, _ := c.Victim()
	if v != 1 {
		t.Errorf("Victim = %d, want displaced page 1", v)
	}
}

func TestCMCPKeyRefreshInPriorityGroup(t *testing.T) {
	h := newCountHost(t)
	c := New(h, 4, WithP(1))
	h.counts[1] = 3
	h.counts[2] = 2
	c.PTESetup(1)
	c.PTESetup(2)
	h.counts[2] = 7
	c.PTESetup(2) // refresh key in place
	v, _ := c.Victim()
	if v != 1 {
		t.Errorf("Victim = %d, want 1 (page 2 refreshed to 7)", v)
	}
}

func TestCMCPAgingDrainsToFIFO(t *testing.T) {
	h := newCountHost(t)
	c := New(h, 4, WithP(1), WithAgePeriod(100), WithAgeDecay(1))
	h.counts[1] = 2
	h.counts[2] = 3
	c.PTESetup(1)
	c.PTESetup(2)
	c.Tick(100) // first tick only arms the timer; no decay
	fifo, prio := c.Groups()
	if fifo != 0 || prio != 2 {
		t.Fatalf("after arming tick: groups = %d/%d", fifo, prio)
	}
	c.Tick(200) // sweep 1, keys: 1, 2 — both still >= 1, nothing drains yet
	fifo, prio = c.Groups()
	if fifo != 0 || prio != 2 {
		t.Fatalf("after 1 sweep: groups = %d/%d", fifo, prio)
	}
	c.Tick(300) // sweep 2, keys: 0, 1 — page 1 underflows (<1) and drains
	fifo, prio = c.Groups()
	if fifo != 1 || prio != 1 {
		t.Fatalf("after 2 sweeps: groups = %d/%d", fifo, prio)
	}
	c.Tick(400) // sweep 3: page 2 drains
	fifo, prio = c.Groups()
	if fifo != 2 || prio != 0 {
		t.Fatalf("after 3 sweeps: groups = %d/%d", fifo, prio)
	}
	// Drain order: page 1 aged out first, so it is the FIFO head.
	v, _ := c.Victim()
	if v != 1 {
		t.Errorf("Victim = %d, want 1", v)
	}
}

func TestCMCPAgingRespectsPeriod(t *testing.T) {
	h := newCountHost(t)
	c := New(h, 4, WithP(1), WithAgePeriod(1000))
	h.counts[1] = 2
	c.PTESetup(1)
	c.Tick(0)   // first tick only arms the timer (next sweep at t=1000)
	c.Tick(500) // before period: no decay
	_, prio := c.Groups()
	if prio != 1 {
		t.Fatalf("premature aging")
	}
	c.Tick(1000) // first sweep: key 2 -> 1, stays
	_, prio = c.Groups()
	if prio != 1 {
		t.Fatalf("key >= 1 drained early")
	}
	c.Tick(2000) // key 1 -> 0: drains
	_, prio = c.Groups()
	if prio != 0 {
		t.Error("aging missed")
	}
}

func TestCMCPSetPShrinksGroup(t *testing.T) {
	h := newCountHost(t)
	c := New(h, 4, WithP(1), WithAgePeriod(10))
	for p := sim.PageID(1); p <= 4; p++ {
		h.counts[p] = 10
		c.PTESetup(p)
	}
	c.SetP(0.25) // bound shrinks to 1
	c.Tick(10)   // arms the aging timer
	c.Tick(20)   // aging enforces the new bound
	fifo, prio := c.Groups()
	if prio != 1 || fifo != 3 {
		t.Errorf("groups after shrink = %d/%d, want 3/1", fifo, prio)
	}
	c.SetP(-5)
	if c.P() != 0 {
		t.Error("SetP must clamp")
	}
	c.SetP(5)
	if c.P() != 1 {
		t.Error("SetP must clamp")
	}
}

func TestCMCPRemove(t *testing.T) {
	h := newCountHost(t)
	c := New(h, 4, WithP(0.5))
	h.counts[1] = 5
	c.PTESetup(1) // prio
	h.counts[2] = 1
	c.PTESetup(2) // prio (room: bound is 2)
	h.counts[3] = 1
	c.PTESetup(3) // fifo
	c.Remove(1)   // from priority group
	c.Remove(3)   // from fifo
	c.Remove(99)  // unknown
	if c.Resident() != 1 {
		t.Errorf("Resident = %d", c.Resident())
	}
	v, ok := c.Victim()
	if !ok || v != 2 {
		t.Errorf("Victim = %d", v)
	}
}

func TestCMCPVictimEmptyAndOrder(t *testing.T) {
	h := newCountHost(t)
	c := New(h, 2, WithP(0.5))
	if _, ok := c.Victim(); ok {
		t.Error("empty CMCP")
	}
	// FIFO is preferred over priority for eviction.
	h.counts[1] = 9
	c.PTESetup(1) // prio
	h.counts[2] = 1
	c.PTESetup(2) // fifo
	v, _ := c.Victim()
	if v != 2 {
		t.Errorf("Victim = %d, want FIFO page first", v)
	}
	v, _ = c.Victim()
	if v != 1 {
		t.Errorf("Victim = %d, want priority page last", v)
	}
}

func TestCMCPRegularPTFallback(t *testing.T) {
	// Host returning -1 (regular page tables, no PSPT) must not break
	// placement: every page gets count 1.
	h := &countHost{} // nil t: ScanAccessed won't be called anyway
	for k := range h.counts {
		delete(h.counts, k)
	}
	c := New(hostNeg{}, 4, WithP(0.5))
	c.PTESetup(1)
	c.PTESetup(2)
	if c.Resident() != 2 {
		t.Error("fallback placement failed")
	}
	_ = h
}

type hostNeg struct{}

func (hostNeg) CoreMapCount(sim.PageID) int  { return -1 }
func (hostNeg) ScanAccessed(sim.PageID) bool { return false }

func TestCMCPGroupBoundInvariantProperty(t *testing.T) {
	// Property: the priority group never exceeds p*capacity, no page is
	// tracked twice, and Resident is exact — under arbitrary workloads.
	f := func(ops []uint16, pRaw uint8) bool {
		p := float64(pRaw%101) / 100
		h := &scriptHost{counts: make(map[sim.PageID]int)}
		const capacity = 32
		c := New(h, capacity, WithP(p), WithAgePeriod(50))
		resident := make(map[sim.PageID]bool)
		var now sim.Cycles
		for _, op := range ops {
			base := sim.PageID(op % 64)
			switch op >> 13 {
			case 0, 1, 2, 3:
				h.counts[base] = int(op%8) + 1
				c.PTESetup(base)
				resident[base] = true
			case 4:
				c.Remove(base)
				delete(resident, base)
			case 5:
				now += 50
				c.Tick(now)
			default:
				if v, ok := c.Victim(); ok {
					if !resident[v] {
						return false
					}
					delete(resident, v)
				}
			}
			fifo, prio := c.Groups()
			if prio > int(p*capacity) {
				return false
			}
			if fifo+prio != len(resident) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(101))}); err != nil {
		t.Error(err)
	}
}

type scriptHost struct{ counts map[sim.PageID]int }

func (h *scriptHost) CoreMapCount(base sim.PageID) int {
	if c, ok := h.counts[base]; ok {
		return c
	}
	return 1
}
func (h *scriptHost) ScanAccessed(sim.PageID) bool { return false }

func TestTunerAdjustsP(t *testing.T) {
	h := newCountHost(t)
	tuner := NewTuner(TunerConfig{Window: 100, InitialStep: 0.25})
	c := New(h, 10, WithP(0.5), WithTuner(tuner))
	p0 := c.P()
	c.NoteFault()
	c.NoteFault()
	c.Tick(100) // first window: establishes baseline, moves p
	if c.P() == p0 {
		t.Error("tuner must move p after the first window")
	}
	// Worsening fault rate must reverse direction and shrink the step.
	for i := 0; i < 50; i++ {
		c.NoteFault()
	}
	p1 := c.P()
	dir1 := p1 - p0
	c.Tick(200)
	p2 := c.P()
	dir2 := p2 - p1
	if dir1*dir2 >= 0 {
		t.Errorf("tuner must reverse on worse rate: %v then %v", dir1, dir2)
	}
	if len(tuner.History) != 2 {
		t.Errorf("history = %d entries", len(tuner.History))
	}
}

func TestTunerStaysInRange(t *testing.T) {
	h := newCountHost(t)
	tuner := NewTuner(TunerConfig{Window: 10, InitialStep: 0.5})
	c := New(h, 10, WithP(0.9), WithTuner(tuner))
	var now sim.Cycles
	for i := 0; i < 100; i++ {
		now += 10
		c.NoteFault()
		c.Tick(now)
		if c.P() < 0 || c.P() > 1 {
			t.Fatalf("p = %v escaped [0,1]", c.P())
		}
	}
}

func TestTunerDefaults(t *testing.T) {
	tn := NewTuner(TunerConfig{})
	if tn.window == 0 || tn.step == 0 {
		t.Error("defaults not applied")
	}
}

// recordingObserver captures promotion/demotion notifications.
type recordingObserver struct {
	promotions map[sim.PageID]float64
	demotions  []sim.PageID
}

func (o *recordingObserver) NotePromotion(base sim.PageID, key float64) {
	if o.promotions == nil {
		o.promotions = make(map[sim.PageID]float64)
	}
	o.promotions[base] = key
}

func (o *recordingObserver) NoteDemotion(base sim.PageID) {
	o.demotions = append(o.demotions, base)
}

func TestCMCPObserverSeesTransitions(t *testing.T) {
	h := newCountHost(t)
	o := &recordingObserver{}
	c := New(h, 4, WithP(0.5), WithObserver(o)) // priority group holds 2

	h.counts[10], h.counts[11], h.counts[12] = 3, 2, 5
	c.PTESetup(10) // admitted (room)
	c.PTESetup(11) // admitted (room)
	c.PTESetup(12) // displaces 11 (the minimum)
	if len(o.promotions) != 3 {
		t.Fatalf("promotions = %v, want 10, 11, 12", o.promotions)
	}
	if o.promotions[10] != 3 || o.promotions[12] != 5 {
		t.Errorf("promotion keys %v", o.promotions)
	}
	if len(o.demotions) != 1 || o.demotions[0] != 11 {
		t.Fatalf("demotions = %v, want [11]", o.demotions)
	}

	// Aging drains both remaining prioritized pages (keys 3 and 5 fall
	// below 1 after five sweeps; the first tick only arms the timer).
	for i := 0; i < 6; i++ {
		c.Tick(sim.Cycles(i+1) * sim.DefaultCostModel().AgePeriod)
	}
	if len(o.demotions) != 3 {
		t.Errorf("after aging demotions = %v, want 10 and 12 drained too", o.demotions)
	}
	if f, p := c.Groups(); p != 0 || f != 3 {
		t.Errorf("groups after aging: fifo=%d prio=%d", f, p)
	}
}

func TestCMCPNoObserverNoPanic(t *testing.T) {
	h := newCountHost(t)
	c := New(h, 4, WithP(0.5))
	h.counts[1] = 4
	c.PTESetup(1)
	c.PTESetup(2)
	c.Tick(sim.DefaultCostModel().AgePeriod * 10)
	if _, ok := c.Victim(); !ok {
		t.Fatal("victim expected")
	}
}

// TestCMCPDeadlineTickBeforeDueIsNoOp checks the policy.Deadline
// contract with and without the dynamic-p tuner: after any prefix of a
// random PTESetup/Remove/Victim/Tick/NoteFault sequence,
// Tick(NextTick()-1) leaves the deadline, p, the tuner history, the
// heap invariants and the Victim order exactly as a twin instance that
// never receives the early ticks.
func TestCMCPDeadlineTickBeforeDueIsNoOp(t *testing.T) {
	for _, dynamic := range []bool{false, true} {
		build := func(h *scriptHost) *CMCP {
			opts := []Option{WithP(0.5), WithAgePeriod(500)}
			if dynamic {
				opts = append(opts, WithTuner(NewTuner(TunerConfig{Window: 800})))
			}
			return New(h, 16, opts...)
		}
		f := func(ops []uint16) bool {
			h := &scriptHost{counts: make(map[sim.PageID]int)}
			a, b := build(h), build(h)
			var now sim.Cycles
			for _, op := range ops {
				base := sim.PageID(op % 48)
				switch op >> 13 {
				case 0, 1, 2:
					h.counts[base] = int(op%6) + 1
					a.PTESetup(base)
					b.PTESetup(base)
				case 3:
					a.Remove(base)
					b.Remove(base)
				case 4:
					a.NoteFault()
					b.NoteFault()
				case 5:
					now += sim.Cycles(op % 400)
					a.Tick(now)
					b.Tick(now)
				default:
					va, oka := a.Victim()
					vb, okb := b.Victim()
					if va != vb || oka != okb {
						return false
					}
				}
				if d := a.NextTick(); d > 0 {
					a.Tick(d - 1)
					if a.NextTick() != d {
						return false
					}
				}
				if a.CheckInvariants() != nil || a.P() != b.P() {
					return false
				}
				if dynamic && len(a.tuner.History) != len(b.tuner.History) {
					return false
				}
			}
			for {
				va, oka := a.Victim()
				vb, okb := b.Victim()
				if va != vb || oka != okb {
					return false
				}
				if !oka {
					return true
				}
			}
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(102))}); err != nil {
			t.Errorf("dynamic=%v: %v", dynamic, err)
		}
	}
}
