package vm

import (
	"math/rand"
	"testing"

	"cmcp/internal/mem"
	"cmcp/internal/sim"
)

// newArbiter returns the slice of a tenantState that victim-tenant
// arbitration reads: the ownership table and the heap of frames held.
func newArbiter(frames, tenants int) *tenantState {
	return &tenantState{cmap: mem.NewCoreMap(frames, tenants), heap: newTenantHeap(tenants)}
}

// linearVictim is the arbitration rule written as a scan: the tenant
// holding the most frames, the lowest ID on ties, -1 when none holds
// any.
func linearVictim(c *mem.CoreMap) int {
	best := -1
	for t := 0; t < c.Tenants(); t++ {
		if u := c.Used(t); u > 0 && (best < 0 || u > c.Used(best)) {
			best = t
		}
	}
	return best
}

// TestVictimTenantRule pins the one arbitration rule: evict from the
// tenant holding the most frames, ties to the lowest tenant ID, and no
// victim (-1) when no tenant holds a frame. Random claim/release
// sequences then check the heap against the linear-scan reference
// after every operation.
func TestVictimTenantRule(t *testing.T) {
	s := newArbiter(16, 4)
	if v := s.victimTenant(); v != -1 {
		t.Fatalf("no frame held: victim %d, want -1", v)
	}
	// Tenant 2 holds the most frames.
	s.claim(0, 1, 1)
	s.claim(1, 1, 2)
	s.claim(2, 1, 2)
	s.claim(3, 1, 3)
	if v := s.victimTenant(); v != 2 {
		t.Fatalf("holdings [0 1 2 1]: victim %d, want 2", v)
	}
	// Tenants 1 and 2 tie at two frames: the lower ID loses.
	s.claim(4, 1, 1)
	if v := s.victimTenant(); v != 1 {
		t.Fatalf("holdings [0 2 2 1]: victim %d, want 1", v)
	}
	// Tenant 3 ties them too and still loses to the lowest ID.
	s.claim(5, 1, 3)
	if v := s.victimTenant(); v != 1 {
		t.Fatalf("holdings [0 2 2 2]: victim %d, want 1", v)
	}
	// Releasing one of tenant 1's frames leaves 2 and 3 tied.
	if owner := s.release(0, 1); owner != 1 {
		t.Fatalf("frame 0 released by tenant %d, want 1", owner)
	}
	if v := s.victimTenant(); v != 2 {
		t.Fatalf("holdings [0 1 2 2]: victim %d, want 2", v)
	}
	// Back to empty: no victim again.
	for _, f := range []sim.FrameID{1, 2, 3, 4, 5} {
		s.release(f, 1)
	}
	if v := s.victimTenant(); v != -1 {
		t.Fatalf("all frames released: victim %d, want -1", v)
	}

	rng := rand.New(rand.NewSource(26))
	for _, shape := range []struct{ frames, tenants int }{{8, 1}, {32, 5}, {64, 17}, {200, 64}} {
		s := newArbiter(shape.frames, shape.tenants)
		var held []sim.FrameID
		free := make([]sim.FrameID, shape.frames)
		for i := range free {
			free[i] = sim.FrameID(i)
		}
		for op := 0; op < 5000; op++ {
			if len(free) > 0 && (len(held) == 0 || rng.Intn(2) == 0) {
				i := rng.Intn(len(free))
				f := free[i]
				free[i] = free[len(free)-1]
				free = free[:len(free)-1]
				s.claim(f, 1, rng.Intn(shape.tenants))
				held = append(held, f)
			} else {
				i := rng.Intn(len(held))
				f := held[i]
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
				s.release(f, 1)
				free = append(free, f)
			}
			want := linearVictim(s.cmap)
			// With no frame held every tenant ties at zero, so the heap's
			// top is tenant 0.
			if top, _, _ := s.heap.Min(); int(top) != max(want, 0) {
				t.Fatalf("%d frames, %d tenants, op %d: heap top is tenant %d, linear scan %d",
					shape.frames, shape.tenants, op, top, want)
			}
			if err := s.heap.CheckInvariants(); err != nil {
				t.Fatalf("%d frames, %d tenants, op %d: %v", shape.frames, shape.tenants, op, err)
			}
			if got := s.victimTenant(); got != want {
				t.Fatalf("%d frames, %d tenants, op %d: victim tenant %d, linear scan %d",
					shape.frames, shape.tenants, op, got, want)
			}
		}
	}
}
