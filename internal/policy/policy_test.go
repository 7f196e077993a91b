package policy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cmcp/internal/dense"
	"cmcp/internal/sim"
)

// fakeHost records scan calls and serves scripted accessed bits.
type fakeHost struct {
	accessed map[sim.PageID]bool
	scans    int
	counts   map[sim.PageID]int
}

func newFakeHost() *fakeHost {
	return &fakeHost{accessed: make(map[sim.PageID]bool), counts: make(map[sim.PageID]int)}
}

func (h *fakeHost) CoreMapCount(base sim.PageID) int {
	if c, ok := h.counts[base]; ok {
		return c
	}
	return 1
}

func (h *fakeHost) ScanAccessed(base sim.PageID) bool {
	h.scans++
	a := h.accessed[base]
	h.accessed[base] = false // test-and-clear semantics
	return a
}

func TestPageListBasics(t *testing.T) {
	l := dense.NewList(0)
	if _, ok := l.PopHead(); ok {
		t.Error("pop from empty")
	}
	l.PushTail(1)
	l.PushTail(2)
	l.PushTail(3)
	if l.Len() != 3 || !l.Has(2) {
		t.Error("len/has")
	}
	if !l.Remove(2) || l.Remove(2) {
		t.Error("remove semantics")
	}
	b, _ := l.PopHead()
	if b != 1 {
		t.Errorf("popHead = %d", b)
	}
	l.PushTail(4)
	l.MoveToTail(3)
	b, _ = l.PopHead()
	if b != 4 {
		t.Errorf("after moveToTail popHead = %d", b)
	}
}

func TestPageListDoublePushPanics(t *testing.T) {
	l := dense.NewList(0)
	l.PushTail(1)
	defer func() {
		if recover() == nil {
			t.Error("double push must panic")
		}
	}()
	l.PushTail(1)
}

func TestPageListOrderProperty(t *testing.T) {
	// Property: popHead drains in push order when nothing is removed.
	f := func(n uint8) bool {
		l := dense.NewList(0)
		k := int(n%50) + 1
		for i := 0; i < k; i++ {
			l.PushTail(sim.PageID(i))
		}
		for i := 0; i < k; i++ {
			b, ok := l.PopHead()
			if !ok || b != sim.PageID(i) {
				return false
			}
		}
		_, ok := l.PopHead()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(107))}); err != nil {
		t.Error(err)
	}
}

func TestFIFOOrder(t *testing.T) {
	f := NewFIFO()
	if f.Name() != "FIFO" {
		t.Error("name")
	}
	f.PTESetup(10)
	f.PTESetup(20)
	f.PTESetup(10) // minor fault by another core: no reordering
	f.PTESetup(30)
	if f.Resident() != 3 {
		t.Errorf("Resident = %d", f.Resident())
	}
	want := []sim.PageID{10, 20, 30}
	for _, w := range want {
		v, ok := f.Victim()
		if !ok || v != w {
			t.Errorf("Victim = %d, want %d", v, w)
		}
	}
	if _, ok := f.Victim(); ok {
		t.Error("empty FIFO must report no victim")
	}
}

func TestFIFORemove(t *testing.T) {
	f := NewFIFO()
	f.PTESetup(1)
	f.PTESetup(2)
	f.Remove(1)
	f.Remove(99) // unknown: ignored
	v, _ := f.Victim()
	if v != 2 {
		t.Errorf("Victim = %d", v)
	}
	f.Tick(0) // no-op, must not panic
}

func TestLRUNewPagesInactive(t *testing.T) {
	h := newFakeHost()
	l := NewLRU(h)
	l.PTESetup(1)
	l.PTESetup(2)
	a, i := l.Lists()
	if a != 0 || i != 2 {
		t.Errorf("lists = %d/%d, want 0 active, 2 inactive", a, i)
	}
	// A repeat setup (minor fault) promotes to active.
	l.PTESetup(1)
	a, i = l.Lists()
	if a != 1 || i != 1 {
		t.Errorf("after promote: %d/%d", a, i)
	}
}

func TestLRUVictimFromInactive(t *testing.T) {
	h := newFakeHost()
	l := NewLRU(h)
	l.PTESetup(1)
	l.PTESetup(2)
	l.PTESetup(1) // 1 active
	v, ok := l.Victim()
	if !ok || v != 2 {
		t.Errorf("Victim = %d, want inactive page 2", v)
	}
	// Inactive empty: falls back to active.
	v, ok = l.Victim()
	if !ok || v != 1 {
		t.Errorf("fallback Victim = %d", v)
	}
}

func TestLRUScannerMovesPages(t *testing.T) {
	h := newFakeHost()
	l := NewLRU(h, WithScanPeriod(100), WithScanBatch(100))
	l.PTESetup(1)
	l.PTESetup(2)
	// Page 1 gets accessed; the scanner must promote it.
	h.accessed[1] = true
	l.Tick(100)
	a, i := l.Lists()
	if a != 1 || i != 1 {
		t.Fatalf("after scan: active=%d inactive=%d", a, i)
	}
	if h.scans == 0 {
		t.Error("scanner must consult access bits")
	}
	// Next period: page 1 idle on active list → demoted.
	l.Tick(200)
	a, i = l.Lists()
	if a != 0 || i != 2 {
		t.Errorf("after idle scan: active=%d inactive=%d", a, i)
	}
}

func TestLRUTickRespectsPeriod(t *testing.T) {
	h := newFakeHost()
	l := NewLRU(h, WithScanPeriod(1000))
	l.PTESetup(1)
	l.Tick(0) // first tick scans immediately (nextScan starts at 0)
	n := h.scans
	l.Tick(500) // before period: no scan
	if h.scans != n {
		t.Error("scan before period expiry")
	}
	l.Tick(1000)
	if h.scans == n {
		t.Error("scan after period expiry missing")
	}
}

func TestLRURemove(t *testing.T) {
	h := newFakeHost()
	l := NewLRU(h)
	l.PTESetup(1)
	l.PTESetup(2)
	l.PTESetup(2) // active
	l.Remove(2)
	l.Remove(1)
	l.Remove(7) // unknown
	if l.Resident() != 0 {
		t.Errorf("Resident = %d", l.Resident())
	}
}

func TestClockSecondChance(t *testing.T) {
	h := newFakeHost()
	c := NewClock(h)
	c.PTESetup(1)
	c.PTESetup(2)
	c.PTESetup(3)
	// Page 1 recently accessed: gets a second chance, 2 is evicted.
	h.accessed[1] = true
	v, ok := c.Victim()
	if !ok || v != 2 {
		t.Errorf("Victim = %d, want 2", v)
	}
	// Hand order now 3, 1 — both bits clear, 3 goes next.
	v, _ = c.Victim()
	if v != 3 {
		t.Errorf("second Victim = %d, want 3", v)
	}
}

func TestClockAllAccessed(t *testing.T) {
	h := newFakeHost()
	c := NewClock(h)
	for p := sim.PageID(1); p <= 3; p++ {
		c.PTESetup(p)
		h.accessed[p] = true
	}
	// All accessed: after one clearing lap the hand evicts page 1.
	v, ok := c.Victim()
	if !ok || v != 1 {
		t.Errorf("Victim = %d, want 1 after full lap", v)
	}
	if c.Resident() != 2 {
		t.Errorf("Resident = %d", c.Resident())
	}
}

func TestClockEmpty(t *testing.T) {
	c := NewClock(newFakeHost())
	if _, ok := c.Victim(); ok {
		t.Error("empty clock")
	}
	c.Remove(9)
	c.Tick(0)
}

func TestLFUVictimIsLeastFrequent(t *testing.T) {
	h := newFakeHost()
	l := NewLFU(h)
	l.PTESetup(1)
	l.PTESetup(2)
	l.PTESetup(3)
	l.PTESetup(2) // freq 2
	l.PTESetup(2) // freq 3
	l.PTESetup(3) // freq 2
	v, ok := l.Victim()
	if !ok || v != 1 {
		t.Errorf("Victim = %d, want least-frequent 1", v)
	}
	v, _ = l.Victim()
	if v != 3 {
		t.Errorf("second Victim = %d, want 3 (freq 2, older seq than... )", v)
	}
}

func TestLFUScanIncrementsAndDecays(t *testing.T) {
	h := newFakeHost()
	l := NewLFU(h, WithLFUScanPeriod(10), WithLFUScanBatch(100))
	l.PTESetup(1)
	l.PTESetup(2)
	l.PTESetup(2) // 2 has freq 2
	// Page 1 gets sampled as accessed twice: freq 1 -> 3 -> 5.
	h.accessed[1] = true
	l.Tick(10)
	h.accessed[1] = true
	l.Tick(20)
	// Page 2 decayed twice: freq 2 -> 1 -> 1.
	v, _ := l.Victim()
	if v != 2 {
		t.Errorf("Victim = %d, want decayed page 2", v)
	}
}

func TestLFURemoveAndEmpty(t *testing.T) {
	h := newFakeHost()
	l := NewLFU(h)
	if _, ok := l.Victim(); ok {
		t.Error("empty LFU")
	}
	l.PTESetup(5)
	l.Remove(5)
	l.Remove(5)
	if l.Resident() != 0 {
		t.Error("Remove failed")
	}
	l.Tick(defaultScanPeriod) // empty tick must not panic
}

func TestRandomPolicy(t *testing.T) {
	r := NewRandom(1)
	if _, ok := r.Victim(); ok {
		t.Error("empty random")
	}
	for p := sim.PageID(0); p < 100; p++ {
		r.PTESetup(p)
	}
	r.PTESetup(5) // duplicate ignored
	if r.Resident() != 100 {
		t.Errorf("Resident = %d", r.Resident())
	}
	seen := make(map[sim.PageID]bool)
	for i := 0; i < 100; i++ {
		v, ok := r.Victim()
		if !ok || seen[v] {
			t.Fatalf("victim %d repeated or missing", v)
		}
		seen[v] = true
	}
	if r.Resident() != 0 {
		t.Error("drain failed")
	}
}

func TestRandomRemove(t *testing.T) {
	r := NewRandom(2)
	r.PTESetup(1)
	r.PTESetup(2)
	r.Remove(1)
	v, ok := r.Victim()
	if !ok || v != 2 {
		t.Errorf("Victim = %d", v)
	}
	r.Remove(99)
	r.Tick(0)
}

// policiesUnderTest builds one of each policy for the generic suites.
func policiesUnderTest(h Host) []Policy {
	return []Policy{NewFIFO(), NewLRU(h), NewClock(h), NewLFU(h), NewRandom(3)}
}

func TestAllPoliciesDrainCompletely(t *testing.T) {
	h := newFakeHost()
	for _, p := range policiesUnderTest(h) {
		for i := sim.PageID(0); i < 50; i++ {
			p.PTESetup(i)
		}
		got := make(map[sim.PageID]bool)
		for {
			v, ok := p.Victim()
			if !ok {
				break
			}
			if got[v] {
				t.Fatalf("%s: victim %d returned twice", p.Name(), v)
			}
			got[v] = true
		}
		if len(got) != 50 {
			t.Errorf("%s: drained %d pages, want 50", p.Name(), len(got))
		}
		if p.Resident() != 0 {
			t.Errorf("%s: Resident = %d after drain", p.Name(), p.Resident())
		}
	}
}

func TestAllPoliciesResidencyInvariantProperty(t *testing.T) {
	// Property: Resident() always equals |setup pages| - |victims| -
	// |removed|, and Victim never returns a page that was removed.
	f := func(ops []uint16) bool {
		h := newFakeHost()
		for _, p := range policiesUnderTest(h) {
			tracked := make(map[sim.PageID]bool)
			for _, op := range ops {
				base := sim.PageID(op % 64)
				switch op >> 13 {
				case 0, 1, 2, 3:
					p.PTESetup(base)
					tracked[base] = true
				case 4, 5:
					p.Remove(base)
					delete(tracked, base)
				default:
					v, ok := p.Victim()
					if ok {
						if !tracked[v] {
							return false
						}
						delete(tracked, v)
					} else if len(tracked) != 0 {
						return false
					}
				}
				if p.Resident() != len(tracked) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(108))}); err != nil {
		t.Error(err)
	}
}

// TestDeadlineTickBeforeDueIsNoOp checks the Deadline contract on every
// baseline policy: after any prefix of a random PTESetup/Remove/Victim/
// Tick sequence, Tick(NextTick()-1) scans nothing and moves neither the
// deadline nor the Victim order, compared against a twin instance that
// never receives the early ticks. A policy with CheckInvariants (LFU)
// must also pass it after every op.
func TestDeadlineTickBeforeDueIsNoOp(t *testing.T) {
	builders := []func(Host) Policy{
		func(Host) Policy { return NewFIFO() },
		func(h Host) Policy { return NewLRU(h, WithScanPeriod(1000), WithScanBatch(8)) },
		func(h Host) Policy { return NewClock(h) },
		func(h Host) Policy { return NewLFU(h, WithLFUScanPeriod(1000), WithLFUScanBatch(8)) },
		func(Host) Policy { return NewRandom(3) },
	}
	for _, build := range builders {
		f := func(ops []uint16) bool {
			ha, hb := newFakeHost(), newFakeHost()
			a, b := build(ha), build(hb)
			var now sim.Cycles
			for _, op := range ops {
				base := sim.PageID(op % 64)
				switch op >> 13 {
				case 0, 1:
					a.PTESetup(base)
					b.PTESetup(base)
				case 2:
					ha.accessed[base] = true
					hb.accessed[base] = true
				case 3:
					a.Remove(base)
					b.Remove(base)
				case 4, 5:
					now += sim.Cycles(op % 700)
					a.Tick(now)
					b.Tick(now)
				default:
					va, oka := a.Victim()
					vb, okb := b.Victim()
					if va != vb || oka != okb {
						return false
					}
				}
				if c, ok := a.(interface{ CheckInvariants() error }); ok {
					if err := c.CheckInvariants(); err != nil {
						t.Log(err)
						return false
					}
				}
				d := a.(Deadline).NextTick()
				if d == 0 {
					continue
				}
				scans := ha.scans
				a.Tick(d - 1)
				if ha.scans != scans || a.(Deadline).NextTick() != d {
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
		if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(109))}); err != nil {
			t.Errorf("%s: %v", build(newFakeHost()).Name(), err)
		}
	}
}
