package sim

import "testing"

// TestRingHopsProperties pins the ring-distance algebra the IPI cost
// model builds on: symmetry, the wrap-around shortcut, the triangle
// bound, and the degenerate n=0/n=1 rings.
func TestRingHopsProperties(t *testing.T) {
	for n := 0; n <= 9; n++ {
		for a := 0; a < max(n, 4); a++ {
			for b := 0; b < max(n, 4); b++ {
				ab := RingHops(CoreID(a), CoreID(b), n)
				ba := RingHops(CoreID(b), CoreID(a), n)
				if ab != ba {
					t.Fatalf("RingHops not symmetric: n=%d a=%d b=%d: %d vs %d", n, a, b, ab, ba)
				}
				if valid := n == 0 || (a < n && b < n); valid && ab < 0 {
					t.Fatalf("RingHops negative: n=%d a=%d b=%d: %d", n, a, b, ab)
				}
				if n > 0 && a < n && b < n {
					if lim := n / 2; ab > lim {
						t.Fatalf("RingHops exceeds half ring: n=%d a=%d b=%d: %d > %d", n, a, b, ab, lim)
					}
					// Triangle bound through every intermediate stop.
					for c := 0; c < n; c++ {
						via := RingHops(CoreID(a), CoreID(c), n) + RingHops(CoreID(c), CoreID(b), n)
						if ab > via {
							t.Fatalf("RingHops violates triangle: n=%d a=%d b=%d via %d: %d > %d", n, a, b, c, ab, via)
						}
					}
				}
				if a == b && ab != 0 {
					t.Fatalf("RingHops(a,a) != 0: n=%d a=%d: %d", n, a, ab)
				}
			}
		}
	}
	// n=0 disables the wrap and degrades to |a-b| (legacy behavior some
	// callers rely on when the ring size is unknown).
	if got := RingHops(0, 5, 0); got != 5 {
		t.Fatalf("RingHops(0,5,0) = %d, want 5", got)
	}
	// n=1: a single-stop ring; the only valid pair is (0,0).
	if got := RingHops(0, 0, 1); got != 0 {
		t.Fatalf("RingHops(0,0,1) = %d, want 0", got)
	}
	// Wrap-around: neighbors across the seam are one hop apart.
	if got := RingHops(0, 7, 8); got != 1 {
		t.Fatalf("RingHops(0,7,8) = %d, want 1", got)
	}
}

func TestIPIDeliveryCostFormula(t *testing.T) {
	c := DefaultCostModel()
	for _, tc := range []struct {
		a, b CoreID
		n    int
	}{{0, 0, 8}, {0, 1, 8}, {0, 7, 8}, {2, 6, 8}, {0, 30, 60}} {
		want := c.IPIPerTarget + Cycles(RingHops(tc.a, tc.b, tc.n))*c.IPIPerHop
		if got := c.IPIDeliveryCost(tc.a, tc.b, tc.n); got != want {
			t.Fatalf("IPIDeliveryCost(%d,%d,%d) = %d, want %d", tc.a, tc.b, tc.n, got, want)
		}
	}
}
