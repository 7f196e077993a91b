package workload

import (
	"slices"
	"testing"

	"cmcp/internal/sim"
)

// appendBuild is the page deal written the simple way, growing each
// pool by append: the oracle Build's counted, exactly sized pools must
// reproduce page for page.
func appendBuild(s Spec, cores int) (hot, cold [][]sim.PageID, total int) {
	hot, cold = make([][]sim.PageID, cores), make([][]sim.PageID, cores)
	next := sim.PageID(0)
	for _, b := range s.Sharing {
		bandPages := int(float64(s.Pages)*b.Frac + 0.5)
		hotFrac := s.SharedHotFrac
		if b.Cores == 1 {
			hotFrac = s.PrivateHotFrac
		}
		if b.HotFrac > 0 {
			hotFrac = b.HotFrac
		}
		k := min(b.Cores, cores)
		for i := 0; i < bandPages; i++ {
			page := next
			next++
			stripe := float64(i / s.hotStripe())
			isHot := int(hotFrac*(stripe+1)) > int(hotFrac*stripe)
			start := (i * cores / max(bandPages, 1)) % cores
			for j := 0; j < k; j++ {
				c := (start + j) % cores
				if isHot {
					hot[c] = append(hot[c], page)
				} else {
					cold[c] = append(cold[c], page)
				}
			}
		}
	}
	return hot, cold, int(next)
}

func TestBuildPoolsExactAndUnchanged(t *testing.T) {
	for _, s := range append(Apps(), Private(300, 1000), SharedAll(300, 1000, 8), Uniform(300, 1000)) {
		for _, cores := range []int{1, 3, 16, 56, 60} {
			l, err := s.Build(cores)
			if err != nil {
				t.Fatal(err)
			}
			hot, cold, total := appendBuild(s, cores)
			if l.TotalPages != total {
				t.Errorf("%s/%d cores: TotalPages %d, want %d", s.Name, cores, l.TotalPages, total)
			}
			for c := 0; c < cores; c++ {
				for _, p := range []struct {
					name      string
					got, want []sim.PageID
				}{{"hot", l.HotPages(c), hot[c]}, {"cold", l.ColdPages(c), cold[c]}} {
					if !slices.Equal(p.got, p.want) {
						t.Fatalf("%s/%d cores: core %d %s pool differs from the append-grown deal", s.Name, cores, c, p.name)
					}
					if cap(p.got) != len(p.got) {
						t.Errorf("%s/%d cores: core %d %s pool has cap %d for %d pages", s.Name, cores, c, p.name, cap(p.got), len(p.got))
					}
				}
			}
		}
	}
}

func TestWarmupStreamsHotThenColdInPlace(t *testing.T) {
	l, err := CG().Scale(0.1).Build(8)
	if err != nil {
		t.Fatal(err)
	}
	streams := l.WarmupStreams()
	if len(streams) != l.Cores {
		t.Fatalf("%d warm-up streams for %d cores", len(streams), l.Cores)
	}
	for c, s := range streams {
		want := slices.Concat(l.HotPages(c), l.ColdPages(c))
		if s.Len() != len(want) {
			t.Fatalf("core %d: Len %d before the drain, want %d", c, s.Len(), len(want))
		}
		seen := make(map[sim.PageID]bool, len(want))
		for i, w := range want {
			if i == len(want)/2 && s.Len() != len(want) {
				t.Fatalf("core %d: Len %d halfway through the drain, want %d", c, s.Len(), len(want))
			}
			a, ok := s.Next()
			if !ok || a.VPN != w || a.Write {
				t.Fatalf("core %d access %d: got (%+v, %v), want a read of page %d", c, i, a, ok, w)
			}
			if seen[a.VPN] {
				t.Fatalf("core %d: page %d warmed twice", c, a.VPN)
			}
			seen[a.VPN] = true
		}
		if a, ok := s.Next(); ok {
			t.Fatalf("core %d: stream continues past its pools with %+v", c, a)
		}
		if s.Len() != len(want) {
			t.Errorf("core %d: Len %d after the drain, want %d", c, s.Len(), len(want))
		}
	}
	// Reading the pools in place: the streams cost two allocations
	// however many pages the layout holds.
	if n := testing.AllocsPerRun(10, func() { l.WarmupStreams() }); n != 2 {
		t.Errorf("WarmupStreams allocates %.0f objects, want 2", n)
	}
}
