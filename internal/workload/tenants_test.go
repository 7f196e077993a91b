package workload

import (
	"testing"

	"cmcp/internal/sim"
)

func validTenantSpec() TenantSpec {
	return DefaultTenantSpec(32, 1.1, 0)
}

func TestTenantSpecValidate(t *testing.T) {
	base := validTenantSpec()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := map[string]func(*TenantSpec){
		"zero tenants":        func(s *TenantSpec) { s.Tenants = 0 },
		"zero pages":          func(s *TenantSpec) { s.PagesPerTenant = 0 },
		"page overflow":       func(s *TenantSpec) { s.Tenants = 1 << 30; s.PagesPerTenant = 4 },
		"zero touches":        func(s *TenantSpec) { s.TotalTouches = 0 },
		"write frac > 1":      func(s *TenantSpec) { s.WriteFrac = 1.5 },
		"negative zipf":       func(s *TenantSpec) { s.ZipfS = -1 },
		"negative skew":       func(s *TenantSpec) { s.PageSkew = -2 },
		"negative churn":      func(s *TenantSpec) { s.ChurnEvery = -5 },
		"negative core count": func(s *TenantSpec) {},
	}
	for name, mod := range cases {
		s := validTenantSpec()
		mod(&s)
		if name == "negative core count" {
			if _, err := s.Build(0); err == nil {
				t.Error("Build(0 cores) accepted")
			}
			continue
		}
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTenantStreamsDeterministic pins the driver's reproducibility:
// same (spec, cores, seed) yields byte-identical access sequences,
// different seeds diverge.
func TestTenantStreamsDeterministic(t *testing.T) {
	spec := validTenantSpec()
	spec.ChurnEvery = 50
	spec.DiurnalEvery = 100
	l, err := spec.Build(4)
	if err != nil {
		t.Fatal(err)
	}
	collect := func(seed uint64) []Access {
		var out []Access
		for _, s := range l.Streams(seed) {
			for {
				a, ok := s.Next()
				if !ok {
					break
				}
				out = append(out, a)
			}
		}
		return out
	}
	a, b := collect(7), collect(7)
	if len(a) == 0 {
		t.Fatal("empty stream")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("touch %d differs between identical seeds", i)
		}
	}
	c := collect(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical sequences")
	}
}

// TestTenantStreamVPNsInRangeAndZipfSkew checks every generated address
// belongs to some tenant and that the Zipf exponent actually
// concentrates traffic: the most popular tenant must see far more
// touches than a tail tenant.
func TestTenantStreamVPNsInRangeAndZipfSkew(t *testing.T) {
	spec := validTenantSpec()
	spec.ZipfS = 1.5
	spec.TotalTouches = 40_000
	l, err := spec.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	perTenant := make([]int, spec.Tenants)
	for _, s := range l.Streams(3) {
		for {
			a, ok := s.Next()
			if !ok {
				break
			}
			if a.VPN < 0 || int(a.VPN) >= l.TotalPages {
				t.Fatalf("VPN %d outside [0, %d)", a.VPN, l.TotalPages)
			}
			perTenant[int(a.VPN)/spec.PagesPerTenant]++
		}
	}
	if perTenant[0] < 4*perTenant[spec.Tenants-1] {
		t.Errorf("Zipf s=1.5 barely skewed: rank-0 tenant got %d touches, last got %d",
			perTenant[0], perTenant[spec.Tenants-1])
	}
}

// TestTenantChurnRotatesHotSet verifies the popularity rotation: with
// churn enabled, the busiest tenant of an early epoch is one past the
// busiest tenant of the epoch before.
func TestTenantChurnRotatesHotSet(t *testing.T) {
	spec := validTenantSpec()
	spec.ZipfS = 2 // sharp: rank 0 dominates
	spec.ChurnEvery = 1000
	spec.TotalTouches = 2000 // one core: epoch 0 then epoch 1
	l, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	s := l.Streams(1)[0]
	early := make([]int, spec.Tenants)
	late := make([]int, spec.Tenants)
	for i := 0; ; i++ {
		a, ok := s.Next()
		if !ok {
			break
		}
		tn := int(a.VPN) / spec.PagesPerTenant
		if i < 1000 {
			early[tn]++
		} else {
			late[tn]++
		}
	}
	argmax := func(v []int) int {
		best := 0
		for i := range v {
			if v[i] > v[best] {
				best = i
			}
		}
		return best
	}
	e, lt := argmax(early), argmax(late)
	if want := (e + 1) % spec.Tenants; lt != want {
		t.Errorf("epoch-1 hot tenant = %d, want %d (epoch-0 hot %d rotated by one)", lt, want, e)
	}
}

// TestTenantWarmupCoversAllPagesOnce checks the warm-up walk touches
// every page of every tenant exactly once across the cores.
func TestTenantWarmupCoversAllPagesOnce(t *testing.T) {
	spec := validTenantSpec()
	for _, cores := range []int{1, 3, 8} {
		l, err := spec.Build(cores)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, l.TotalPages)
		total := 0
		for _, s := range l.WarmupStreams() {
			if s.Len() < 0 {
				t.Fatal("negative Len")
			}
			for {
				a, ok := s.Next()
				if !ok {
					break
				}
				counts[a.VPN]++
				total++
				if a.Write {
					t.Fatal("warm-up issued a write")
				}
			}
		}
		if total != l.TotalPages {
			t.Fatalf("%d cores: warm-up touched %d of %d pages", cores, total, l.TotalPages)
		}
		for p, c := range counts {
			if c != 1 {
				t.Fatalf("%d cores: page %d touched %d times", cores, p, c)
			}
		}
	}
}

// TestTenantDiurnalFlattens checks the trough phase spreads traffic:
// under a sharp peak exponent, the touch share of the rank-0 tenant
// during trough windows must be lower than during peak windows.
func TestTenantDiurnalFlattens(t *testing.T) {
	spec := validTenantSpec()
	spec.ZipfS = 2
	spec.DiurnalEvery = 2000
	spec.TotalTouches = 8000 // one core: peak, trough, peak, trough
	l, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	s := l.Streams(9)[0]
	var peakHot, peakAll, troughHot, troughAll int
	for i := 0; ; i++ {
		a, ok := s.Next()
		if !ok {
			break
		}
		hot := int(a.VPN)/spec.PagesPerTenant == 0
		if (i/2000)%2 == 0 {
			peakAll++
			if hot {
				peakHot++
			}
		} else {
			troughAll++
			if hot {
				troughHot++
			}
		}
	}
	peakShare := float64(peakHot) / float64(peakAll)
	troughShare := float64(troughHot) / float64(troughAll)
	if troughShare >= peakShare {
		t.Errorf("trough hot-tenant share %.3f >= peak share %.3f; diurnal phase did nothing",
			troughShare, peakShare)
	}
}

// TestRangeStreamLenStable pins the warm-up stream's Len contract:
// Len reports the original size even after the walk consumed entries
// (machine warm-up reads Len once up front on some paths, later on
// others).
func TestRangeStreamLenStable(t *testing.T) {
	r := &rangeStream{next: sim.PageID(0), end: sim.PageID(5)}
	if r.Len() != 5 {
		t.Fatalf("fresh Len = %d", r.Len())
	}
	r.Next()
	r.Next()
	if r.Len() != 5 {
		t.Errorf("Len after consuming = %d, want 5", r.Len())
	}
}
