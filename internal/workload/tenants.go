package workload

import (
	"fmt"
	"math"
	"sort"

	"cmcp/internal/sim"
)

// TenantSpec describes serving-shaped multi-tenant traffic: many small
// address spaces (key-value shards, model replicas) whose popularity
// follows a Zipf distribution, with optional popularity churn and a
// diurnal phase. It replaces Spec on multi-tenant runs — one machine,
// Tenants address spaces, one shared frame pool.
//
// Tenant t owns the global pages [t·PagesPerTenant, (t+1)·PagesPerTenant).
// Streams are deterministic: the same (spec, cores, seed) triple yields
// bit-identical sequences, independent of scheduling.
type TenantSpec struct {
	// Tenants is the number of address spaces.
	Tenants int
	// PagesPerTenant is each tenant's footprint in 4 kB pages.
	PagesPerTenant int
	// TotalTouches is the aggregate access count across all cores.
	TotalTouches int
	// WriteFrac is the probability a touch is a write.
	WriteFrac float64
	// ZipfS is the exponent of the tenant popularity distribution:
	// popularity(rank r) ∝ 1/(r+1)^s. Zero means uniform traffic.
	ZipfS float64
	// PageSkew grades popularity inside a tenant the way Spec.HotSkew
	// grades the hot pool: page index = ⌊pages·u^PageSkew⌋. Values ≤ 1
	// mean uniform.
	PageSkew float64
	// ChurnEvery rotates which tenants are popular after that many
	// touches on each core: popularity rank r maps to tenant
	// (r + epoch) mod Tenants. Zero disables churn.
	ChurnEvery int
	// DiurnalEvery alternates peak and trough traffic shape with that
	// half-period (in per-core touches): trough phases flatten the
	// tenant popularity exponent to ZipfS/2, spreading load across the
	// long tail the way off-peak serving traffic does. Zero disables it.
	DiurnalEvery int
}

// DefaultTenantSpec returns a serving-shaped spec sized so every tenant
// sees traffic: ~400 touches per tenant over a 16-page footprint, with
// graded within-tenant popularity. Used by cmcpsim -tenants and the
// multitenant example.
func DefaultTenantSpec(tenants int, zipfS float64, churnEvery int) TenantSpec {
	return TenantSpec{
		Tenants:        tenants,
		PagesPerTenant: 16,
		TotalTouches:   tenants * 400,
		WriteFrac:      0.25,
		ZipfS:          zipfS,
		PageSkew:       2,
		ChurnEvery:     churnEvery,
	}
}

// Name labels experiment output, mirroring Spec.Name.
func (s *TenantSpec) Name() string {
	return fmt.Sprintf("tenants-%dx%d", s.Tenants, s.PagesPerTenant)
}

// Validate checks the spec for internal consistency. Every range check
// is written so that NaN fails it.
func (s *TenantSpec) Validate() error {
	if s.Tenants <= 0 {
		return fmt.Errorf("tenants: non-positive tenant count %d", s.Tenants)
	}
	if s.PagesPerTenant <= 0 {
		return fmt.Errorf("tenants: non-positive pages per tenant %d", s.PagesPerTenant)
	}
	if s.Tenants > (1<<31)/s.PagesPerTenant {
		return fmt.Errorf("tenants: %d tenants x %d pages overflows the page space",
			s.Tenants, s.PagesPerTenant)
	}
	if s.TotalTouches <= 0 {
		return fmt.Errorf("tenants: non-positive touch count %d", s.TotalTouches)
	}
	if !(s.WriteFrac >= 0 && s.WriteFrac <= 1) {
		return fmt.Errorf("tenants: WriteFrac %g outside [0,1]", s.WriteFrac)
	}
	if !(s.ZipfS >= 0) || math.IsInf(s.ZipfS, 1) {
		return fmt.Errorf("tenants: ZipfS %g is not a finite non-negative number", s.ZipfS)
	}
	if !(s.PageSkew >= 0) || math.IsInf(s.PageSkew, 1) {
		return fmt.Errorf("tenants: PageSkew %g is not a finite non-negative number", s.PageSkew)
	}
	if s.ChurnEvery < 0 || s.DiurnalEvery < 0 {
		return fmt.Errorf("tenants: negative churn/diurnal schedule")
	}
	return nil
}

// Build validates the spec and precomputes the popularity tables shared
// by all per-core streams.
func (s *TenantSpec) Build(cores int) (*TenantLayout, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("tenants: non-positive core count %d", cores)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	l := &TenantLayout{
		Spec:       *s,
		Cores:      cores,
		TotalPages: s.Tenants * s.PagesPerTenant,
	}
	if s.ZipfS > 0 {
		l.peak = newZipfTable(zipfCDF(s.Tenants, s.ZipfS))
		if s.DiurnalEvery > 0 {
			l.trough = newZipfTable(zipfCDF(s.Tenants, s.ZipfS/2))
		}
	}
	return l, nil
}

// TenantLayout is a built TenantSpec: the popularity CDFs all per-core
// streams share, analogous to Layout for Spec.
type TenantLayout struct {
	Spec       TenantSpec
	Cores      int
	TotalPages int

	peak   *zipfTable // tenant popularity by rank; nil = uniform
	trough *zipfTable // flattened off-peak popularity; nil unless diurnal
}

// zipfTable draws a popularity rank from a CDF in O(1) expected time.
// guide[k] is the first rank whose cumulative share reaches k/K, with
// K the smallest power of two ≥ len(cum); a draw u starts at bucket
// ⌊u·K⌋ and scans forward. K is a power of two, so u·K and k/K are
// exact in float64 and the result equals sort.SearchFloat64s(cum, u)
// for every u.
type zipfTable struct {
	cum   []float64
	guide []int32
	k     float64 // len(guide), as a float
}

func newZipfTable(cum []float64) *zipfTable {
	k := 1
	for k < len(cum) {
		k <<= 1
	}
	z := &zipfTable{cum: cum, guide: make([]int32, k), k: float64(k)}
	for i := range z.guide {
		z.guide[i] = int32(sort.SearchFloat64s(cum, float64(i)/z.k))
	}
	return z
}

// rank returns the first rank whose cumulative share is ≥ u, for u in
// [0, 1); len(cum) when there is none.
func (z *zipfTable) rank(u float64) int {
	i := int(z.guide[int(u*z.k)])
	for i < len(z.cum) && z.cum[i] < u {
		i++
	}
	return i
}

// zipfCDF returns the cumulative distribution over n ranks with
// popularity(r) ∝ 1/(r+1)^s, normalized so the last entry is exactly 1.
func zipfCDF(n int, s float64) []float64 {
	cum := make([]float64, n)
	var total float64
	for r := 0; r < n; r++ {
		total += math.Pow(float64(r+1), -s)
		cum[r] = total
	}
	for r := range cum {
		cum[r] /= total
	}
	cum[n-1] = 1
	return cum
}

// Streams returns one measured-phase stream per core. Touch counts and
// RNG splitting mirror Layout.Streams so engine behavior is identical.
func (l *TenantLayout) Streams(seed uint64) []Stream {
	streams := make([]Stream, l.Cores)
	perCore := l.Spec.TotalTouches / l.Cores
	if perCore < 1 {
		perCore = 1
	}
	root := sim.NewRNG(seed)
	for c := 0; c < l.Cores; c++ {
		streams[c] = &tenantStream{
			rng:       root.Split(),
			layout:    l,
			remaining: perCore,
			total:     perCore,
		}
	}
	return streams
}

// WarmupStreams partitions the whole page space contiguously across the
// cores and walks it once, faulting every tenant's pages in.
func (l *TenantLayout) WarmupStreams() []Stream {
	streams := make([]Stream, l.Cores)
	for c := 0; c < l.Cores; c++ {
		lo := l.TotalPages * c / l.Cores
		hi := l.TotalPages * (c + 1) / l.Cores
		streams[c] = &rangeStream{next: sim.PageID(lo), end: sim.PageID(hi)}
	}
	return streams
}

// rangeStream touches [next, end) once each, as reads.
type rangeStream struct {
	next, end sim.PageID
	total     int
	init      bool
}

// Next implements Stream.
func (r *rangeStream) Next() (Access, bool) {
	if !r.init {
		r.total = int(r.end - r.next)
		r.init = true
	}
	if r.next >= r.end {
		return Access{}, false
	}
	a := Access{VPN: r.next}
	r.next++
	return a, true
}

// Len implements Stream.
func (r *rangeStream) Len() int {
	if r.init {
		return r.total
	}
	return int(r.end - r.next)
}

// tenantStream draws (tenant, page) pairs from the layout's popularity
// tables: a Zipf draw picks the popularity rank, the churn epoch maps
// rank to tenant, and PageSkew grades the page inside the tenant. Each
// selected page is touched DefaultBurst consecutive times.
type tenantStream struct {
	rng       *sim.RNG
	layout    *TenantLayout
	remaining int
	total     int

	cur     sim.PageID
	curLeft int
}

// Next implements Stream.
func (t *tenantStream) Next() (Access, bool) {
	if t.remaining <= 0 {
		return Access{}, false
	}
	idx := t.total - t.remaining // 0-based index of this touch on this core
	t.remaining--
	if t.curLeft <= 0 {
		spec := &t.layout.Spec
		pop := t.layout.peak
		if spec.DiurnalEvery > 0 && t.layout.trough != nil &&
			(idx/spec.DiurnalEvery)%2 == 1 {
			pop = t.layout.trough
		}
		var rank int
		if pop == nil {
			rank = t.rng.Intn(spec.Tenants)
		} else {
			rank = pop.rank(t.rng.Float64())
			if rank >= spec.Tenants {
				rank = spec.Tenants - 1
			}
		}
		tenant := rank
		if spec.ChurnEvery > 0 {
			epoch := idx / spec.ChurnEvery
			tenant = (rank + epoch) % spec.Tenants
		}
		var page int
		if spec.PageSkew > 1 {
			u := t.rng.Float64()
			page = int(math.Pow(u, spec.PageSkew) * float64(spec.PagesPerTenant))
			if page >= spec.PagesPerTenant {
				page = spec.PagesPerTenant - 1
			}
		} else {
			page = t.rng.Intn(spec.PagesPerTenant)
		}
		t.cur = sim.PageID(tenant*spec.PagesPerTenant + page)
		t.curLeft = DefaultBurst
	}
	t.curLeft--
	return Access{VPN: t.cur, Write: t.rng.Float64() < t.layout.Spec.WriteFrac}, true
}

// Len implements Stream.
func (t *tenantStream) Len() int { return t.total }
