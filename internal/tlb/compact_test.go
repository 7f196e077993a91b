package tlb

import (
	"testing"

	"cmcp/internal/sim"
)

// Regression tests for the stale-slot compaction fix: under
// invalidate/insert churn the FIFO queue used to grow linearly with
// total inserts (stale slots were only reclaimed by eviction pops,
// which a set running below capacity never performs). The queue must
// now stay within a small multiple of the set capacity, and compaction
// must preserve the eviction order of everything live.

// only4k is a TLB whose sole set is a 4 kB L1 of the given capacity:
// with no L2 to demote into, its set behaves exactly as a lone fifoSet.
func only4k(capacity int) (*TLB, *fifoSet) {
	tb := New(Config{L1Entries4k: capacity}, 0)
	return &tb, &tb.l1[sim.Size4k]
}

func TestFifoSetQueueBoundedUnderChurn(t *testing.T) {
	tb, s := only4k(16)
	bound := 4*s.cap + 64
	for i := 0; i < 50_000; i++ {
		tb.Insert(sim.PageID(i%96), sim.Size4k)
		tb.Invalidate(sim.PageID((i + 37) % 96))
		if len(s.queue) > bound {
			t.Fatalf("iteration %d: queue length %d exceeds bound %d", i, len(s.queue), bound)
		}
		if i%1000 == 0 {
			if err := tb.checkSet(s, "churn"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tb.checkSet(s, "churn"); err != nil {
		t.Fatal(err)
	}
}

func TestTLBChurnBoundedAndConsistent(t *testing.T) {
	tb := New(Config{L1Entries4k: 8, L1Entries64k: 4, L1Entries2M: 2, L2Entries: 8}, 0)
	for i := 0; i < 30_000; i++ {
		tb.Insert(sim.PageID(i%200), sim.Size4k)
		tb.Invalidate(sim.PageID((i * 7) % 200))
		if i%500 == 0 {
			if err := tb.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range []*fifoSet{&tb.l1[sim.Size4k], &tb.l2} {
		if lim := 4*s.cap + 64; len(s.queue) > lim {
			t.Errorf("queue length %d exceeds bound %d", len(s.queue), lim)
		}
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactLivePreservesEvictionOrder churns stale slots past the
// compaction threshold and then verifies the surviving live entries
// still evict in their original FIFO order.
func TestCompactLivePreservesEvictionOrder(t *testing.T) {
	tb, s := only4k(4)
	for i := 0; i < 4; i++ {
		tb.Insert(sim.PageID(i), sim.Size4k)
	}
	// Open one slot so churn inserts never trigger eviction, then pile
	// stale slots for page 10 until compaction must fire.
	tb.Invalidate(3)
	for i := 0; i < 300; i++ {
		tb.Insert(10, sim.Size4k)
		tb.Invalidate(10)
	}
	if len(s.queue) > 4*s.cap+64 {
		t.Fatalf("compaction never fired: queue length %d", len(s.queue))
	}
	tb.Insert(10, sim.Size4k) // back to capacity: 0,1,2,10
	want := []sim.PageID{0, 1, 2, 10}
	for i, p := range []sim.PageID{20, 21, 22, 23} {
		vb, ok := tb.insert(s, p, s.mask)
		if !ok {
			t.Fatalf("insert %d evicted nothing", p)
		}
		if vb != want[i] {
			t.Errorf("eviction %d: got page %d, want %d", i, vb, want[i])
		}
	}
}

// storm drives t through a shootdown storm: random inserts of every
// size class, a quarter of them invalidated at once (a remote eviction
// right after the walk), each followed by the invalidation of a random
// page. Stale slots pile up in every set while L1 victims keep demoting
// into the L2. It returns the longest queue each set reached.
func storm(t *TLB, pages int) (longest [4]int) {
	rng := sim.NewRNG(7)
	sets := [4]*fifoSet{&t.l1[sim.Size4k], &t.l1[sim.Size64k], &t.l1[sim.Size2M], &t.l2}
	for i := 0; i < 20_000; i++ {
		vpn := sim.PageID(rng.Intn(pages))
		t.Insert(vpn, sizes[rng.Intn(len(sizes))])
		if rng.Intn(4) == 0 {
			t.Invalidate(vpn)
		}
		t.Invalidate(sim.PageID(rng.Intn(pages)))
		for j, s := range sets {
			longest[j] = max(longest[j], len(s.queue))
		}
	}
	return longest
}

var sinkTLB TLB

// TestShootdownStormNeverGrowsQueues pins newFifoSet's sizing claim:
// New makes every set queue at its queueSlots bound, so a
// shootdown storm that drives each queue to its compaction threshold
// allocates nothing beyond the TLB's construction.
func TestShootdownStormNeverGrowsQueues(t *testing.T) {
	const pages = 512
	cfg := DefaultConfig()
	tb := New(cfg, pages)
	longest := storm(&tb, pages)
	caps := [4]int{cfg.L1Entries4k, cfg.L1Entries64k, cfg.L1Entries2M, cfg.L2Entries}
	for j, c := range caps {
		// Each set must reach the compaction threshold, or the storm
		// never tested the bound.
		if longest[j] < 4*c+64 {
			t.Errorf("set %d: storm reached %d queue slots, want the compaction threshold %d", j, longest[j], 4*c+64)
		}
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	build := testing.AllocsPerRun(10, func() { sinkTLB = New(cfg, pages) })
	stormed := testing.AllocsPerRun(10, func() {
		sinkTLB = New(cfg, pages)
		storm(&sinkTLB, pages)
	})
	if stormed != build {
		t.Errorf("a shootdown storm allocates %.0f objects beyond New's %.0f, want 0", stormed-build, build)
	}
}
