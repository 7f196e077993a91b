package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cmcp/internal/sim"
)

func small() Config {
	return Config{L1Entries4k: 4, L1Entries64k: 2, L1Entries2M: 2, L2Entries: 4}
}

func TestLookupMissInsertHit(t *testing.T) {
	tb := New(small(), 0)
	if tb.Lookup(5) != Miss {
		t.Error("cold TLB must miss")
	}
	tb.Insert(5, sim.Size4k)
	if tb.Lookup(5) != HitL1 {
		t.Error("inserted entry must hit L1")
	}
	if tb.Lookup(6) != Miss {
		t.Error("neighbour page must miss for 4k entry")
	}
}

func Test64kEntryCoversGroup(t *testing.T) {
	tb := New(small(), 0)
	tb.Insert(35, sim.Size64k) // any member vpn
	for v := sim.PageID(32); v < 48; v++ {
		if tb.Lookup(v) != HitL1 {
			t.Fatalf("vpn %d must hit via the 64k entry", v)
		}
	}
	if tb.Lookup(48) == HitL1 {
		t.Error("vpn outside group must not hit")
	}
	if tb.Entries() != 1 {
		t.Errorf("group must occupy exactly one entry, got %d", tb.Entries())
	}
}

func Test2MEntryCoversRegion(t *testing.T) {
	tb := New(small(), 0)
	tb.Insert(1000, sim.Size2M)
	if tb.Lookup(512) != HitL1 || tb.Lookup(1023) != HitL1 {
		t.Error("2M entry must cover the whole aligned region")
	}
	if tb.Lookup(1024) == HitL1 {
		t.Error("next region must miss")
	}
}

func TestFIFOEvictionAndL2Demotion(t *testing.T) {
	tb := New(small(), 0) // 4 L1 4k entries, 4 L2
	for v := sim.PageID(0); v < 5; v++ {
		tb.Insert(v, sim.Size4k)
	}
	// vpn 0 was evicted from L1 into L2.
	if got := tb.Lookup(0); got != HitL2 {
		t.Errorf("demoted entry lookup = %v, want HitL2", got)
	}
	// The L2 hit promoted it back to L1.
	if got := tb.Lookup(0); got != HitL1 {
		t.Errorf("promoted entry lookup = %v, want HitL1", got)
	}
}

func TestL2EvictionDiscards(t *testing.T) {
	tb := New(small(), 0)
	// Fill far beyond both levels.
	for v := sim.PageID(0); v < 20; v++ {
		tb.Insert(v, sim.Size4k)
	}
	// The oldest entries are gone entirely.
	if tb.Lookup(0) != Miss {
		t.Error("entry must eventually fall out of both levels")
	}
	if tb.Entries() > 8 {
		t.Errorf("capacity exceeded: %d entries", tb.Entries())
	}
}

func TestInvalidate(t *testing.T) {
	tb := New(small(), 0)
	tb.Insert(5, sim.Size4k)
	if !tb.Invalidate(5) {
		t.Error("invalidate of cached entry must report true")
	}
	if tb.Lookup(5) != Miss {
		t.Error("invalidated entry must miss")
	}
	if tb.Invalidate(5) {
		t.Error("second invalidate must report false")
	}
}

func TestInvalidateByMemberVPN(t *testing.T) {
	tb := New(small(), 0)
	tb.Insert(32, sim.Size64k)
	if !tb.Invalidate(40) { // member, not base
		t.Error("invalidate via member vpn must find the group entry")
	}
	if tb.Lookup(33) != Miss {
		t.Error("whole group must be gone")
	}
	tb.Insert(512, sim.Size2M)
	if !tb.Invalidate(700) {
		t.Error("invalidate inside 2M region")
	}
}

func TestInvalidateReachesL2(t *testing.T) {
	tb := New(small(), 0)
	for v := sim.PageID(0); v < 5; v++ {
		tb.Insert(v, sim.Size4k)
	}
	// vpn 0 now lives in L2 only.
	if !tb.Invalidate(0) {
		t.Error("invalidate must reach L2")
	}
	if tb.Lookup(0) != Miss {
		t.Error("L2 entry survived invalidation")
	}
}

func TestZeroCapacityClass(t *testing.T) {
	tb := New(Config{L1Entries4k: 0, L1Entries64k: 0, L1Entries2M: 0, L2Entries: 0}, 0)
	tb.Insert(1, sim.Size4k) // must not panic
	if tb.Lookup(1) != Miss {
		t.Error("zero-capacity TLB always misses")
	}
}

func TestMixedSizeClassesIndependent(t *testing.T) {
	tb := New(small(), 0)
	tb.Insert(0, sim.Size4k)
	tb.Insert(16, sim.Size64k)
	tb.Insert(512, sim.Size2M)
	if tb.Lookup(0) != HitL1 || tb.Lookup(20) != HitL1 || tb.Lookup(600) != HitL1 {
		t.Error("classes must coexist")
	}
	// Filling the 4k class must not evict other classes.
	for v := sim.PageID(100); v < 110; v++ {
		tb.Insert(v, sim.Size4k)
	}
	if tb.Lookup(20) != HitL1 || tb.Lookup(600) != HitL1 {
		t.Error("4k pressure evicted other size classes from L1")
	}
}

func TestCapacityNeverExceededProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		cfg := small()
		tb := New(cfg, 0)
		maxTotal := cfg.L1Entries4k + cfg.L1Entries64k + cfg.L1Entries2M + cfg.L2Entries
		for _, op := range ops {
			vpn := sim.PageID(op % 4096)
			switch op >> 14 {
			case 0, 1:
				tb.Insert(vpn, sim.Size4k)
			case 2:
				tb.Insert(vpn, sim.Size64k)
			default:
				tb.Invalidate(vpn)
			}
			if tb.Entries() > maxTotal {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(115))}); err != nil {
		t.Error(err)
	}
}

func TestInsertLookupConsistencyProperty(t *testing.T) {
	// Property: immediately after Insert, Lookup hits (L1).
	f := func(raw []uint16) bool {
		tb := New(DefaultConfig(), 0)
		for _, r := range raw {
			vpn := sim.PageID(r)
			size := sizes[int(r)%3]
			tb.Insert(vpn, size)
			if tb.Lookup(vpn) != HitL1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(116))}); err != nil {
		t.Error(err)
	}
}

// TestCheckInvariantsRejectsStrayBits plants bits behind the sets'
// bookkeeping: a reserved bit, the transient mark left at rest, and an
// entry bit with no queue slot in each set's field.
func TestCheckInvariantsRejectsStrayBits(t *testing.T) {
	for _, tc := range []struct {
		name string
		bits uint8
	}{
		{"reserved bit 5", 1 << 5},
		{"reserved bit 6", 1 << 6},
		{"mark bit at rest", markBit},
		{"L1 4kB without a slot", 1 << sim.Size4k},
		{"L1 64kB without a slot", 1 << sim.Size64k},
		{"L1 2MB without a slot", 1 << sim.Size2M},
		{"L2 without a slot", (uint8(sim.Size4k) + 1) << l2Shift},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := New(small(), 0)
			tb.Insert(0, sim.Size4k)
			tb.Insert(16, sim.Size64k)
			tb.Insert(600, sim.Size2M) // the table now covers page 1023
			if err := tb.CheckInvariants(); err != nil {
				t.Fatalf("clean TLB: %v", err)
			}
			tb.state[32] |= tc.bits
			if err := tb.CheckInvariants(); err == nil {
				t.Fatalf("state byte %#02x at page 32 passed the check", tb.state[32])
			}
		})
	}
}
