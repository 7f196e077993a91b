// Package workload synthesizes the per-core memory access streams of
// the paper's applications: NPB CG, LU and BT (OpenMP, strong scaling)
// and RIKEN's SCALE climate stencil.
//
// A Go library cannot run the Fortran originals on a Xeon Phi, and the
// replacement policies never see source code anyway — they observe
// page-level access streams. Each workload is therefore specified by
// the observables the paper reports:
//
//   - the page-sharing profile: what fraction of computation-area pages
//     is mapped by how many cores (Figure 6);
//   - the hot-set fraction: how much memory captures most accesses,
//     which sets where performance starts dropping under memory
//     constraint (Figure 8: CG ~35 %, SCALE ~55 %, BT/LU immediate);
//   - the access skew that lets LRU reduce page faults below FIFO
//     (Table 1) and makes shared pages valuable to retain (CMCP's win).
//
// Streams are deterministic: the same (spec, cores, seed) triple yields
// bit-identical sequences, independent of scheduling.
package workload

import (
	"fmt"
	"math"

	"cmcp/internal/sim"
)

// Access is one simulated page touch.
type Access struct {
	VPN   sim.PageID
	Write bool
}

// Stream yields one core's access sequence.
type Stream interface {
	// Next returns the next access; ok is false when the stream ends.
	Next() (a Access, ok bool)
	// Len returns the total number of accesses the stream will yield.
	Len() int
}

// ShareBand declares that Frac of the computation-area pages are each
// mapped by exactly Cores (adjacent) cores. HotFrac, when positive,
// overrides the spec-level SharedHotFrac/PrivateHotFrac for this band —
// used when heat correlates with sharing degree (e.g. CG's all-core
// vector segments are far hotter than its two-core matrix overlaps).
type ShareBand struct {
	Cores   int
	Frac    float64
	HotFrac float64
}

// Spec is the parametric description of a workload.
type Spec struct {
	// Name labels experiment output (e.g. "cg.B").
	Name string
	// Pages is the computation-area size in 4 kB pages.
	Pages int
	// TotalTouches is the aggregate access count across all cores
	// (strong scaling: per-core work shrinks as cores grow).
	TotalTouches int
	// WriteFrac is the probability a touch is a store.
	WriteFrac float64
	// Sharing is the page-sharing profile; fractions must sum to ~1.
	// Band k=1 is per-core private data.
	Sharing []ShareBand
	// SharedHotFrac is the fraction of shared pages in the hot set.
	SharedHotFrac float64
	// PrivateHotFrac is the fraction of private pages in the hot set.
	PrivateHotFrac float64
	// HotQ is the probability a touch lands in the hot set.
	HotQ float64
	// Burst is the number of consecutive touches a core issues to a
	// selected page before picking the next one (intra-page reuse: a
	// 4 kB page holds 512 doubles, so a sweep touches it many times
	// while it is resident). Zero means DefaultBurst.
	Burst int
	// SeqP is the probability that the next page selection continues
	// sequentially (the next page of the core's own population)
	// instead of drawing randomly — the streaming component of HPC
	// sweeps. Sequential runs are what large mappings prefetch for:
	// one 64 kB fault brings the next 15 pages of a walk.
	SeqP float64
	// HotStripe is the spatial clustering granularity of the hot set,
	// in contiguous base pages: heat is decided per stripe rather than
	// per page, reflecting that HPC arrays have spatially clustered hot
	// regions. This is what gives large mappings (64 kB / 2 MB) regions
	// that are wholly hot or wholly cold; with per-page interleaving a
	// large page would always contain hot data and any memory
	// constraint would thrash. Zero means DefaultHotStripe.
	HotStripe int
	// HotSkew grades popularity inside the hot pool: a draw picks hot
	// index floor(n*u^HotSkew) for uniform u, so with skew > 1 the
	// front of the pool (the most-shared pages, since Build lays bands
	// out in spec order) is touched far more often than the back. This
	// is the within-working-set reuse gradient that lets LRU cut page
	// faults below FIFO (Table 1) and makes the most-shared pages the
	// most valuable to retain. Zero or one means uniform.
	HotSkew float64
}

// DefaultBurst is the intra-page reuse factor used when Spec.Burst is
// zero.
const DefaultBurst = 8

// DefaultHotStripe is the hot-set spatial clustering granularity used
// when Spec.HotStripe is zero: 128 pages = 512 kB.
const DefaultHotStripe = 128

// Validate reports structural problems in the spec. Every range check
// is written so that NaN fails it.
func (s Spec) Validate() error {
	if s.Pages <= 0 || s.TotalTouches <= 0 {
		return fmt.Errorf("workload %s: pages/touches must be positive", s.Name)
	}
	var sum float64
	for _, b := range s.Sharing {
		if b.Cores < 1 {
			return fmt.Errorf("workload %s: band with %d cores", s.Name, b.Cores)
		}
		if !(b.Frac >= 0) {
			return fmt.Errorf("workload %s: band Frac %v is not a non-negative number", s.Name, b.Frac)
		}
		if !(b.HotFrac >= 0 && b.HotFrac <= 1) {
			return fmt.Errorf("workload %s: band HotFrac %v outside [0,1]", s.Name, b.HotFrac)
		}
		sum += b.Frac
	}
	if !(sum >= 0.999 && sum <= 1.001) {
		return fmt.Errorf("workload %s: band fractions sum to %v", s.Name, sum)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"WriteFrac", s.WriteFrac}, {"SharedHotFrac", s.SharedHotFrac}, {"PrivateHotFrac", s.PrivateHotFrac}, {"HotQ", s.HotQ}, {"SeqP", s.SeqP}} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("workload %s: %s %v outside [0,1]", s.Name, f.name, f.v)
		}
	}
	if s.Burst < 0 {
		return fmt.Errorf("workload %s: negative burst %d", s.Name, s.Burst)
	}
	if !(s.HotSkew >= 0) || math.IsInf(s.HotSkew, 1) {
		return fmt.Errorf("workload %s: HotSkew %v is not a finite non-negative number", s.Name, s.HotSkew)
	}
	if s.HotStripe < 0 {
		return fmt.Errorf("workload %s: negative hot stripe %d", s.Name, s.HotStripe)
	}
	return nil
}

// hotStripe returns the effective hot clustering granularity.
func (s Spec) hotStripe() int {
	if s.HotStripe <= 0 {
		return DefaultHotStripe
	}
	return s.HotStripe
}

// burst returns the effective intra-page reuse factor.
func (s Spec) burst() int {
	if s.Burst <= 0 {
		return DefaultBurst
	}
	return s.Burst
}

// HotFraction returns the expected fraction of pages in the hot set —
// the memory ratio below which performance should start dropping.
func (s Spec) HotFraction() float64 {
	var hot float64
	for _, b := range s.Sharing {
		f := s.SharedHotFrac
		if b.Cores == 1 {
			f = s.PrivateHotFrac
		}
		if b.HotFrac > 0 {
			f = b.HotFrac
		}
		hot += b.Frac * f
	}
	return hot
}

// Build lays out the computation area for the given core count and
// returns the per-core populations. Pages are dealt band by band:
// private pages are split evenly among cores; a band shared by k cores
// is divided into groups, each assigned to k adjacent cores (halo-style
// neighbour sharing, matching the stencil/NPB patterns in Fig. 6).
//
// The deal runs twice: the first pass counts each core's hot and cold
// pages, the second writes them into pools carved from one slab at
// exactly those sizes, so no pool ever grows.
func (s Spec) Build(cores int) (*Layout, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if cores <= 0 {
		return nil, fmt.Errorf("workload %s: %d cores", s.Name, cores)
	}
	l := &Layout{
		Spec:  s,
		Cores: cores,
		hot:   make([][]sim.PageID, cores),
		cold:  make([][]sim.PageID, cores),
	}
	counts := make([]int, 2*cores) // core c: hot pages at 2c, cold at 2c+1
	l.TotalPages = s.deal(cores, func(c int, _ sim.PageID, hot bool) {
		if hot {
			counts[2*c]++
		} else {
			counts[2*c+1]++
		}
	})
	n := 0
	for _, k := range counts {
		n += k
	}
	slab := make([]sim.PageID, n)
	for c := 0; c < cores; c++ {
		h, k := counts[2*c], counts[2*c+1]
		l.hot[c], l.cold[c] = slab[:0:h], slab[h:h:h+k]
		slab = slab[h+k:]
	}
	s.deal(cores, func(c int, page sim.PageID, hot bool) {
		if hot {
			l.hot[c] = append(l.hot[c], page)
		} else {
			l.cold[c] = append(l.cold[c], page)
		}
	})
	return l, nil
}

// deal walks the band-by-band page deal in order, calling assign once
// for each core a page is dealt to, and returns the pages laid out.
func (s Spec) deal(cores int, assign func(c int, page sim.PageID, hot bool)) int {
	next := sim.PageID(0)
	stripe := s.hotStripe()
	for _, b := range s.Sharing {
		bandPages := int(float64(s.Pages)*b.Frac + 0.5)
		hotFrac := s.SharedHotFrac
		if b.Cores == 1 {
			hotFrac = s.PrivateHotFrac
		}
		if b.HotFrac > 0 {
			hotFrac = b.HotFrac
		}
		k := b.Cores
		if k > cores {
			k = cores // cannot share among more cores than exist
		}
		for i := 0; i < bandPages; i++ {
			page := next
			next++
			// Deterministic striping at HotStripe granularity: stripe b
			// is hot iff the running count floor(hotFrac*(b+1)) advances
			// at b, which marks a hotFrac share of the band's stripes
			// (and hence pages) as hot while keeping heat spatially
			// clustered for the large-page experiments.
			b := float64(i / stripe)
			isHot := int(hotFrac*(b+1)) > int(hotFrac*b)
			// Owner group: k adjacent cores, rotating start so groups
			// spread evenly.
			start := (i * cores / max(bandPages, 1)) % cores
			for j := 0; j < k; j++ {
				assign((start+j)%cores, page, isHot)
			}
		}
	}
	return int(next)
}

// Layout is the materialized per-core page populations of a workload at
// a given core count.
type Layout struct {
	Spec       Spec
	Cores      int
	TotalPages int
	hot, cold  [][]sim.PageID
}

// HotPages returns core's hot population (shared halos + hot private).
func (l *Layout) HotPages(core int) []sim.PageID { return l.hot[core] }

// ColdPages returns core's cold population.
func (l *Layout) ColdPages(core int) []sim.PageID { return l.cold[core] }

// Streams creates the per-core access streams for this layout. Each
// core draws TotalTouches/Cores accesses in bursts: a selected page is
// touched Burst consecutive times, each touch a store with probability
// WriteFrac, and a fresh draw starts the stream's second half. The
// next page continues the core's sequential walk through its current
// pool with probability SeqP. Otherwise it comes from the hot pool
// with probability HotQ, at index floor(n*u^HotSkew) for uniform u when
// HotSkew > 1 and uniformly else, or uniformly from the cold pool. A
// core with no cold pages always draws hot, one with no hot pages cold.
func (l *Layout) Streams(seed uint64) []Stream {
	streams := make([]Stream, l.Cores)
	rs := make([]randStream, l.Cores)
	perCore := l.Spec.TotalTouches / l.Cores
	if perCore < 1 {
		perCore = 1
	}
	root := sim.NewRNG(seed)
	for c := range rs {
		rs[c] = randStream{
			hot:       l.hot[c],
			cold:      l.cold[c],
			hotQ:      l.Spec.HotQ,
			hotSkew:   l.Spec.HotSkew,
			seqP:      l.Spec.SeqP,
			writeFrac: l.Spec.WriteFrac,
			burst:     l.Spec.burst(),
			remaining: perCore,
			total:     perCore,
		}
		rs[c].rng.Seed(root.Uint64()) // what root.Split() draws
		streams[c] = &rs[c]
	}
	return streams
}

// WarmupStreams returns streams that touch each page of every core's
// population exactly once: its hot pool, then its cold pool, read in
// place from the layout. The engine uses them to bring the system to
// steady state (resident set populated, TLBs warm) before the measured
// phase, mirroring the paper's steady-state iteration measurements —
// otherwise scaled-down runs are dominated by one-time demand paging
// that real multi-minute runs amortize away.
func (l *Layout) WarmupStreams() []Stream {
	streams := make([]Stream, l.Cores)
	ws := make([]warmStream, l.Cores)
	for c := range ws {
		ws[c] = warmStream{hot: l.hot[c], cold: l.cold[c]}
		streams[c] = &ws[c]
	}
	return streams
}

// warmStream reads a core's hot pool and then its cold pool once each.
type warmStream struct {
	hot, cold []sim.PageID
	pos       int // index into hot, then len(hot) + index into cold
}

// Next implements Stream.
func (s *warmStream) Next() (Access, bool) {
	var a Access
	switch i := s.pos; {
	case i < len(s.hot):
		a.VPN = s.hot[i]
	case i-len(s.hot) < len(s.cold):
		a.VPN = s.cold[i-len(s.hot)]
	default:
		return Access{}, false
	}
	s.pos++
	return a, true
}

// Len implements Stream.
func (s *warmStream) Len() int { return len(s.hot) + len(s.cold) }

// randStream draws pages from the two-tier population and touches each
// selected page `burst` consecutive times (intra-page reuse).
type randStream struct {
	rng       sim.RNG
	hot, cold []sim.PageID
	hotQ      float64
	hotSkew   float64
	seqP      float64
	writeFrac float64
	burst     int
	remaining int
	total     int

	cur     sim.PageID
	curPool []sim.PageID // pool the current page came from
	curIdx  int          // index of cur within curPool
	curLeft int
}

// Next implements Stream.
func (r *randStream) Next() (Access, bool) {
	if r.remaining <= 0 {
		return Access{}, false
	}
	if r.remaining == r.total/2 {
		// The current burst ends halfway through the stream, so the
		// second half starts on a fresh page draw. The RNG sequence
		// depends on it and the goldens pin it.
		r.curLeft = 0
	}
	r.remaining--
	if r.curLeft <= 0 {
		// Streaming component: continue the sequential walk through the
		// core's own population with probability seqP (runs have
		// geometric mean length 1/(1-seqP)). Walking the pool keeps the
		// stream inside the core's partition, so the sharing profile of
		// Fig. 6 is exactly the one Build laid out.
		if r.seqP > 0 && r.curPool != nil && r.curIdx+1 < len(r.curPool) && r.rng.Float64() < r.seqP {
			r.curIdx++
			r.cur = r.curPool[r.curIdx]
			r.curLeft = r.burst - 1
			return Access{VPN: r.cur, Write: r.rng.Float64() < r.writeFrac}, true
		}
		hot := len(r.cold) == 0 || (len(r.hot) > 0 && r.rng.Float64() < r.hotQ)
		pool := r.cold
		if hot {
			pool = r.hot
		}
		switch {
		case len(pool) == 0:
			// Degenerate spec (no pages for this core): touch page 0.
			r.cur = 0
			r.curPool = nil
		case hot && r.hotSkew > 1:
			// Graded popularity: skewed index into the hot pool.
			u := r.rng.Float64()
			u = math.Pow(u, r.hotSkew)
			r.curIdx = int(u * float64(len(pool)))
			r.cur = pool[r.curIdx]
			r.curPool = pool
		default:
			r.curIdx = r.rng.Intn(len(pool))
			r.cur = pool[r.curIdx]
			r.curPool = pool
		}
		r.curLeft = r.burst
	}
	r.curLeft--
	return Access{VPN: r.cur, Write: r.rng.Float64() < r.writeFrac}, true
}

// Len implements Stream.
func (r *randStream) Len() int { return r.total }
