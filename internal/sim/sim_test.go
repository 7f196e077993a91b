package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageSizeSpan(t *testing.T) {
	cases := []struct {
		size PageSize
		span PageID
		str  string
	}{
		{Size4k, 1, "4kB"},
		{Size64k, 16, "64kB"},
		{Size2M, 512, "2MB"},
	}
	for _, c := range cases {
		if got := c.size.Span(); got != c.span {
			t.Errorf("%v.Span() = %d, want %d", c.size, got, c.span)
		}
		if got := c.size.Bytes(); got != int64(c.span)*PageSize4k {
			t.Errorf("%v.Bytes() = %d, want %d", c.size, got, int64(c.span)*PageSize4k)
		}
		if got := c.size.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
	if s := PageSize(99).String(); s != "PageSize(99)" {
		t.Errorf("unknown size String() = %q", s)
	}
}

func TestPageSizeAlign(t *testing.T) {
	if got := Size64k.Align(17); got != 16 {
		t.Errorf("Align(17) = %d, want 16", got)
	}
	if got := Size64k.Align(16); got != 16 {
		t.Errorf("Align(16) = %d, want 16", got)
	}
	if !Size64k.Aligned(32) || Size64k.Aligned(33) {
		t.Error("Aligned boundary check failed")
	}
	if got := Size2M.Align(1000); got != 512 {
		t.Errorf("2M Align(1000) = %d, want 512", got)
	}
	if !Size4k.Aligned(12345) {
		t.Error("every page is 4k aligned")
	}
}

func TestPageSizeAlignProperty(t *testing.T) {
	f := func(v int64) bool {
		vpn := PageID(v & 0x7fffffff)
		for _, s := range []PageSize{Size4k, Size64k, Size2M} {
			a := s.Align(vpn)
			if a > vpn || !s.Aligned(a) || vpn-a >= s.Span() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(112))}); err != nil {
		t.Error(err)
	}
}

func TestScannerCore(t *testing.T) {
	if ScannerCore(56) != 56 {
		t.Errorf("ScannerCore(56) = %d", ScannerCore(56))
	}
}

func TestResourceUncontended(t *testing.T) {
	var r Resource
	done, waited := r.Acquire(100, 50)
	if done != 150 || waited != 0 {
		t.Errorf("Acquire = (%d, %d), want (150, 0)", done, waited)
	}
	if r.FreeAt() != 150 {
		t.Errorf("FreeAt = %d", r.FreeAt())
	}
}

func TestResourceContended(t *testing.T) {
	var r Resource
	r.Acquire(100, 50) // busy until 150
	done, waited := r.Acquire(120, 30)
	if done != 180 || waited != 30 {
		t.Errorf("contended Acquire = (%d, %d), want (180, 30)", done, waited)
	}
	if r.FreeAt() != 180 {
		t.Errorf("FreeAt = %d, want 180", r.FreeAt())
	}
}

func TestResourceSerializesProperty(t *testing.T) {
	// Property: k back-to-back acquisitions at the same instant finish
	// exactly k*hold later — the queueing rule fully serializes.
	f := func(k8 uint8, hold16 uint16) bool {
		k := int(k8%20) + 1
		hold := Cycles(hold16%1000) + 1
		var r Resource
		var done Cycles
		for i := 0; i < k; i++ {
			done, _ = r.Acquire(0, hold)
		}
		return done == Cycles(k)*hold
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(113))}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/64 identical draws", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed must not yield a degenerate stream")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) covered only %d values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(99)
	child := parent.Split()
	// Child stream should not track the parent stream.
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split stream matched parent %d/64 times", same)
	}
}

func TestRingHops(t *testing.T) {
	cases := []struct {
		a, b CoreID
		n    int
		want int
	}{
		{0, 0, 60, 0},
		{0, 1, 60, 1},
		{0, 59, 60, 1},  // wrap-around: neighbours on the ring
		{0, 30, 60, 30}, // antipode
		{10, 50, 60, 20},
		{5, 2, 60, 3},
	}
	for _, c := range cases {
		if got := RingHops(c.a, c.b, c.n); got != c.want {
			t.Errorf("RingHops(%d,%d,%d) = %d, want %d", c.a, c.b, c.n, got, c.want)
		}
	}
}

func TestRingHopsSymmetricProperty(t *testing.T) {
	f := func(a8, b8 uint8) bool {
		const n = 60
		a, b := CoreID(a8%n), CoreID(b8%n)
		h := RingHops(a, b, n)
		return h == RingHops(b, a, n) && h >= 0 && h <= n/2
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(114))}); err != nil {
		t.Error(err)
	}
}

func TestIPIDeliveryCost(t *testing.T) {
	c := DefaultCostModel()
	near := c.IPIDeliveryCost(0, 1, 60)
	far := c.IPIDeliveryCost(0, 30, 60)
	if far <= near {
		t.Errorf("far target (%d) must cost more than neighbour (%d)", far, near)
	}
	if near != c.IPIPerTarget+c.IPIPerHop {
		t.Errorf("neighbour cost = %d", near)
	}
}

func TestKNLCostModel(t *testing.T) {
	knc := DefaultCostModel()
	knl := KNLCostModel()
	if knl.DMALatency >= knc.DMALatency {
		t.Error("KNL latency must be lower")
	}
	if knl.DMABytesPerCycle <= knc.DMABytesPerCycle {
		t.Error("KNL bandwidth must be higher")
	}
	if knl.IPIInterrupt != knc.IPIInterrupt || knl.TouchCompute != knc.TouchCompute {
		t.Error("CPU-side costs must be unchanged")
	}
}
