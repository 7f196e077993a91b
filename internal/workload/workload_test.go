package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cmcp/internal/sim"
)

func TestSpecValidate(t *testing.T) {
	good := CG()
	if err := good.Validate(); err != nil {
		t.Errorf("CG spec invalid: %v", err)
	}
	bad := good
	bad.Pages = 0
	if bad.Validate() == nil {
		t.Error("zero pages must fail")
	}
	bad = good
	bad.Sharing = []ShareBand{{Cores: 1, Frac: 0.5}}
	if bad.Validate() == nil {
		t.Error("fractions not summing to 1 must fail")
	}
	bad = good
	bad.Sharing = []ShareBand{{Cores: 0, Frac: 1}}
	if bad.Validate() == nil {
		t.Error("zero-core band must fail")
	}
	bad = good
	bad.HotQ = 1.5
	if bad.Validate() == nil {
		t.Error("probability out of range must fail")
	}
}

func TestAllAppsValid(t *testing.T) {
	for _, s := range Apps() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if s.HotFraction() <= 0 || s.HotFraction() > 1 {
			t.Errorf("%s: hot fraction %v", s.Name, s.HotFraction())
		}
	}
}

func TestHotFractionMatchesFigure8(t *testing.T) {
	// The hot-set fractions encode the turning points of Figure 8.
	checks := []struct {
		spec   Spec
		lo, hi float64
	}{
		{CG(), 0.28, 0.42},    // CG flat until ~35 %
		{SCALE(), 0.48, 0.62}, // SCALE flat until ~55 %
		{BT(), 0.85, 1.0},     // BT degrades immediately
		{LU(), 0.85, 1.0},     // LU degrades immediately
	}
	for _, c := range checks {
		h := c.spec.HotFraction()
		if h < c.lo || h > c.hi {
			t.Errorf("%s hot fraction = %.2f, want in [%.2f, %.2f]", c.spec.Name, h, c.lo, c.hi)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("cg.B"); !ok {
		t.Error("cg.B missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown name found")
	}
}

func TestBuildPartitionsAllPages(t *testing.T) {
	l, err := CG().Build(8)
	if err != nil {
		t.Fatal(err)
	}
	// Every page must appear in at least one core's population, and the
	// page space must be dense 0..TotalPages-1.
	seen := make(map[sim.PageID]int)
	for c := 0; c < 8; c++ {
		for _, p := range l.HotPages(c) {
			seen[p]++
		}
		for _, p := range l.ColdPages(c) {
			seen[p]++
		}
	}
	if len(seen) != l.TotalPages {
		t.Errorf("pages covered = %d, want %d", len(seen), l.TotalPages)
	}
	for p := sim.PageID(0); p < sim.PageID(l.TotalPages); p++ {
		if seen[p] == 0 {
			t.Fatalf("page %d unassigned", p)
		}
	}
}

func TestBuildSharingProfile(t *testing.T) {
	// The realized owners-per-page histogram must match the bands.
	spec := BT()
	l, err := spec.Build(8)
	if err != nil {
		t.Fatal(err)
	}
	owners := make(map[sim.PageID]int)
	for c := 0; c < 8; c++ {
		for _, p := range l.HotPages(c) {
			owners[p]++
		}
		for _, p := range l.ColdPages(c) {
			owners[p]++
		}
	}
	hist := make(map[int]int)
	for _, k := range owners {
		hist[k]++
	}
	for _, b := range spec.Sharing {
		want := float64(spec.Pages) * b.Frac
		got := float64(hist[b.Cores])
		if got < want*0.9-2 || got > want*1.1+2 {
			t.Errorf("band %d cores: %v pages, want ~%v", b.Cores, got, want)
		}
	}
}

func TestBuildPrivatePagesDisjoint(t *testing.T) {
	l, err := Private(1000, 1000).Build(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[sim.PageID]bool)
	for c := 0; c < 4; c++ {
		for _, p := range append(append([]sim.PageID{}, l.HotPages(c)...), l.ColdPages(c)...) {
			if seen[p] {
				t.Fatalf("private page %d owned by two cores", p)
			}
			seen[p] = true
		}
	}
}

func TestBuildMoreBandCoresThanCores(t *testing.T) {
	// A band wider than the machine clamps to all cores.
	l, err := SharedAll(100, 100, 8).Build(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.HotPages(0))+len(l.ColdPages(0)) != 100 {
		t.Error("core 0 must see every page")
	}
	if len(l.HotPages(1))+len(l.ColdPages(1)) != 100 {
		t.Error("core 1 must see every page")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := CG().Build(0); err == nil {
		t.Error("zero cores must fail")
	}
	bad := CG()
	bad.Pages = -1
	if _, err := bad.Build(4); err == nil {
		t.Error("invalid spec must fail Build")
	}
}

func TestStreamsDeterministic(t *testing.T) {
	spec := SCALE().Scale(0.05)
	l, _ := spec.Build(4)
	s1 := l.Streams(42)
	s2 := l.Streams(42)
	for c := range s1 {
		for {
			a1, ok1 := s1[c].Next()
			a2, ok2 := s2[c].Next()
			if ok1 != ok2 || a1 != a2 {
				t.Fatalf("core %d: streams diverge", c)
			}
			if !ok1 {
				break
			}
		}
	}
}

func TestStreamsSeedChangesSequence(t *testing.T) {
	l, _ := CG().Scale(0.05).Build(2)
	a := l.Streams(1)[0]
	b := l.Streams(2)[0]
	same := 0
	for i := 0; i < 100; i++ {
		x, _ := a.Next()
		y, _ := b.Next()
		if x == y {
			same++
		}
	}
	if same > 50 {
		t.Errorf("different seeds matched %d/100 draws", same)
	}
}

func TestStreamLengthAndTermination(t *testing.T) {
	spec := Uniform(256, 1000)
	l, _ := spec.Build(4)
	streams := l.Streams(7)
	for c, s := range streams {
		if s.Len() != 250 {
			t.Errorf("core %d stream len = %d, want 250", c, s.Len())
		}
		n := 0
		for {
			_, ok := s.Next()
			if !ok {
				break
			}
			n++
		}
		if n != 250 {
			t.Errorf("core %d yielded %d", c, n)
		}
		if _, ok := s.Next(); ok {
			t.Error("stream must stay exhausted")
		}
	}
}

func TestStreamHotBias(t *testing.T) {
	spec := CG()
	l, _ := spec.Build(4)
	s := l.Streams(3)[0]
	hotSet := make(map[sim.PageID]bool)
	for _, p := range l.HotPages(0) {
		hotSet[p] = true
	}
	hot, total := 0, 0
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		total++
		if hotSet[a.VPN] {
			hot++
		}
	}
	frac := float64(hot) / float64(total)
	if frac < spec.HotQ-0.05 || frac > spec.HotQ+0.05 {
		t.Errorf("hot access fraction = %.3f, want ~%.2f", frac, spec.HotQ)
	}
}

func TestStreamWriteFraction(t *testing.T) {
	spec := BT().Scale(0.2)
	l, _ := spec.Build(2)
	s := l.Streams(5)[0]
	writes, total := 0, 0
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		total++
		if a.Write {
			writes++
		}
	}
	frac := float64(writes) / float64(total)
	if frac < spec.WriteFrac-0.05 || frac > spec.WriteFrac+0.05 {
		t.Errorf("write fraction = %.3f, want ~%.2f", frac, spec.WriteFrac)
	}
}

func TestStreamVPNsInRange(t *testing.T) {
	f := func(seed uint16, coresRaw uint8) bool {
		cores := int(coresRaw%8) + 1
		spec := LU().Scale(0.03)
		l, err := spec.Build(cores)
		if err != nil {
			return false
		}
		for _, s := range l.Streams(uint64(seed)) {
			for i := 0; i < 200; i++ {
				a, ok := s.Next()
				if !ok {
					break
				}
				if a.VPN < 0 || a.VPN >= sim.PageID(l.TotalPages) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(120))}); err != nil {
		t.Error(err)
	}
}

func TestScaleClamps(t *testing.T) {
	s := CG().Scale(0.000001)
	if s.Pages < 64 || s.TotalTouches < 1024 {
		t.Error("Scale must clamp to minimums")
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

// TestBurstEndsAtHalfway pins the mid-stream burst break: with a burst
// longer than the whole stream, a core touches one page for the first
// half and draws a new one exactly at the halfway touch. The goldens
// depend on that extra draw.
func TestBurstEndsAtHalfway(t *testing.T) {
	spec := SCALE().Scale(0.02)
	spec.SeqP, spec.HotSkew = 0, 0
	spec.Burst = spec.TotalTouches
	l, err := spec.Build(4)
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range l.Streams(9) {
		n := s.Len()
		half := n - n/2 // the touch at which n/2 touches remain
		var first, second sim.PageID
		for i := 0; i < n; i++ {
			a, ok := s.Next()
			if !ok {
				t.Fatalf("core %d: stream ended after %d of %d touches", c, i, n)
			}
			switch {
			case i == 0:
				first = a.VPN
			case i == half:
				second = a.VPN
			case i < half && a.VPN != first, i > half && a.VPN != second:
				t.Fatalf("core %d: touch %d of %d went to page %d inside a burst (halfway at %d)", c, i, n, a.VPN, half)
			}
		}
		if second == first {
			t.Errorf("core %d: the halfway touch stayed on page %d", c, first)
		}
	}
}
