package pspt

import (
	"slices"
	"testing"

	"cmcp/internal/pagetable"
	"cmcp/internal/sim"
)

// refBits is the model of one PTE's hardware-set attributes.
type refBits struct{ a, d bool }

// refMapping is the model of one mapping record: what PSPT claims
// (cores) next to what the per-core tables hold (ptes: one refBits per
// 4 kB member for 64 kB groups, one otherwise).
type refMapping struct {
	pfn   int64
	cores CoreSet
	ptes  map[sim.CoreID][]refBits
}

// refPSPT is the naive model FuzzPSPT checks PSPT against: a map of
// records keyed by base, all of one page size.
type refPSPT struct {
	n    int
	size sim.PageSize
	m    map[sim.PageID]*refMapping
}

func (r *refPSPT) find(vpn sim.PageID) (sim.PageID, *refMapping) {
	base := r.size.Align(vpn)
	return base, r.m[base]
}

func (r *refPSPT) install(rm *refMapping, core sim.CoreID, flags pagetable.PTE) {
	n := 1
	if r.size == sim.Size64k {
		n = sim.Span64k
	}
	bits := make([]refBits, n)
	for i := range bits {
		bits[i] = refBits{flags.Has(pagetable.Accessed), flags.Has(pagetable.Dirty)}
	}
	rm.ptes[core] = bits
	rm.cores.Add(core)
}

func (r *refPSPT) mapOp(core sim.CoreID, base sim.PageID, pfn int64, flags pagetable.PTE) (first, failed bool) {
	rm, ok := r.m[base]
	switch {
	case ok && rm.pfn != pfn:
		return false, true
	case ok && rm.cores.Has(core):
		return false, false
	case !ok && r.size == sim.Size64k && pfn%sim.Span64k != 0:
		return false, true
	case !ok:
		rm = &refMapping{pfn: pfn, ptes: map[sim.CoreID][]refBits{}}
		r.m[base] = rm
	}
	r.install(rm, core, flags)
	return !ok, false
}

// member is the index of vpn's refBits in a pte slice.
func (r *refPSPT) member(base, vpn sim.PageID) int {
	if r.size == sim.Size64k {
		return int(vpn - base)
	}
	return 0
}

// fuzzVPN maps an op byte onto the fuzzed address range: every page in
// [0,128), then every eighth page of [512,1024) and of [1024,1536).
// Pages in [128,512) are never touched (for 2 MB mappings, only
// through the block at 0).
func fuzzVPN(b byte) sim.PageID {
	switch {
	case b < 128:
		return sim.PageID(b)
	case b < 192:
		return 512 + sim.PageID(b-128)*8
	}
	return 1024 + sim.PageID(b-192)*8
}

// fuzzProbes are the VPNs checked after every op: every 4 kB and 64 kB
// page, the never-mapped gap's edges, a sample of each 2 MB block, and
// pages past the range.
var fuzzProbes = func() []sim.PageID {
	var v []sim.PageID
	for p := sim.PageID(0); p < 130; p++ {
		v = append(v, p)
	}
	for p := sim.PageID(511); p < 1540; p += 29 {
		v = append(v, p)
	}
	return append(v, 1023, 1024, 1535, 1536, 4096)
}()

// FuzzPSPT drives PSPT and a map-and-slice model through the same op
// stream and checks, after every op, the core-map counts, the mapping
// records (each with at least one mapping core), the per-core PTE bits
// and the accessed/dirty summary.
//
// data[0] picks the shape: cores (2, 8 or 72, by data[0]%3), sized
// pages (0, 64 or 1024, by data[0]/3%3, so some or all pages lie past
// the summary and pre-sized storage) and the page size of every mapping
// (4 kB, 64 kB or 2 MB, by data[0]/9%3); its bit 7 is unused. Then each
// op is three bytes: an op code (its quotient by 11 picks PTE flags;
// codes 7 to 10 are no-ops, so every seed keeps its meaning), a core
// and a page.
func FuzzPSPT(f *testing.F) {
	f.Add([]byte{0x01, 0, 0, 5, 2, 1, 5, 4, 1, 5, 5, 0, 5, 6, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := [3]int{2, 8, 72}[data[0]%3]
		pages := [3]int{0, 64, 1024}[data[0]/3%3]
		size := [3]sim.PageSize{sim.Size4k, sim.Size64k, sim.Size2M}[data[0]/9%3]
		p := New(n, size, pages)
		r := &refPSPT{n: n, size: size, m: map[sim.PageID]*refMapping{}}
		flagSets := [4]pagetable.PTE{0, pagetable.Writable, pagetable.Writable | pagetable.Accessed,
			pagetable.Writable | pagetable.Accessed | pagetable.Dirty}
		ops := data[1:]
		for step := 0; len(ops) >= 3 && step < 300; step, ops = step+1, ops[3:] {
			code, sel := ops[0]%11, ops[0]/11%4
			core := sim.CoreID(int(ops[1]) % n)
			vpn := fuzzVPN(ops[2])
			base := size.Align(vpn)
			flags := flagSets[sel]
			switch code {
			case 0, 1: // Map; code 1 with a frame off by one
				pfn := int64(base) + 4096 + int64(code)
				first, failed := r.mapOp(core, base, pfn, flags)
				gotFirst, err := p.Map(core, base, pfn, flags)
				if (err != nil) != failed || gotFirst != first {
					t.Fatalf("step %d: Map(%d, %d, %d) first=%v err=%v, model first=%v failed=%v",
						step, core, base, pfn, gotFirst, err, first, failed)
				}
			case 2: // CopyFromSibling
				mb, rm := r.find(vpn)
				if rm != nil && !rm.cores.Has(core) {
					r.install(rm, core, flags)
				}
				m, ok, err := p.CopyFromSibling(core, vpn, flags)
				if err != nil || ok != (rm != nil) || (ok && (m.Base != mb || m.Cores != rm.cores)) {
					t.Fatalf("step %d: CopyFromSibling(%d, %d) = %+v, %v, %v; model resident=%v", step, core, vpn, m, ok, err, rm != nil)
				}
			case 3, 4: // Touch, read or write
				write := code == 4
				if mb, rm := r.find(vpn); rm != nil {
					if bits, ok := rm.ptes[core]; ok {
						b := &bits[r.member(mb, vpn)]
						b.a = true
						b.d = b.d || write
					}
				}
				p.Touch(core, vpn, write)
			case 5: // ScanAccessed
				var want []sim.CoreID
				wantPTEs := 1
				if _, rm := r.find(vpn); rm != nil {
					if size == sim.Size64k {
						wantPTEs = sim.Span64k
					}
					set := rm.cores
					for c, ok := set.Pop(); ok; c, ok = set.Pop() {
						hit := false
						for i := range rm.ptes[c] {
							hit = hit || rm.ptes[c][i].a
							rm.ptes[c][i].a = false
						}
						if hit {
							want = append(want, c)
						}
					}
				}
				accessed, targets, ptes := p.ScanAccessed(vpn, nil)
				if accessed != (len(want) > 0) || !slices.Equal(targets, want) || ptes != wantPTEs {
					t.Fatalf("step %d: ScanAccessed(%d) = %v, %v, %d; want targets %v, %d PTEs",
						step, vpn, accessed, targets, ptes, want, wantPTEs)
				}
			case 6: // Unmap
				mb, rm := r.find(vpn)
				wantDirty := false
				if rm != nil {
					for _, bits := range rm.ptes {
						for _, b := range bits {
							wantDirty = wantDirty || b.d
						}
					}
					delete(r.m, mb)
				}
				m, dirty, ok := p.Unmap(vpn)
				if ok != (rm != nil) {
					t.Fatalf("step %d: Unmap(%d) found=%v, model resident=%v", step, vpn, ok, rm != nil)
				}
				if ok && (m.Base != mb || m.PFN != rm.pfn || m.Cores != rm.cores || dirty != wantDirty) {
					t.Fatalf("step %d: Unmap(%d) = %+v dirty=%v; model base %d %+v dirty=%v", step, vpn, m, dirty, mb, *rm, wantDirty)
				}
			}
			checkAgainstModel(t, step, p, r, pages)
		}
	})
}

func sortedBases(r *refPSPT) []sim.PageID {
	bases := make([]sim.PageID, 0, len(r.m))
	for b := range r.m {
		bases = append(bases, b)
	}
	slices.Sort(bases)
	return bases
}

// checkAgainstModel compares every observable of p with the model.
func checkAgainstModel(t *testing.T, step int, p *PSPT, r *refPSPT, pages int) {
	t.Helper()
	if got := p.ResidentMappings(); got != len(r.m) {
		t.Fatalf("step %d: ResidentMappings = %d, model %d", step, got, len(r.m))
	}
	wantHist := make([]int, r.n+1)
	for _, rm := range r.m {
		wantHist[rm.cores.Count()]++
	}
	if got := p.SharingHistogram(); !slices.Equal(got, wantHist) {
		t.Fatalf("step %d: SharingHistogram = %v, model %v", step, got, wantHist)
	}
	bases := sortedBases(r)
	i := 0
	p.ForEachMapping(func(m Mapping) {
		if i >= len(bases) || m.Base != bases[i] {
			t.Fatalf("step %d: ForEachMapping visit %d is base %d, model order %v", step, i, m.Base, bases)
		}
		if m.Cores.Count() == 0 || r.m[m.Base].cores.Count() == 0 {
			t.Fatalf("step %d: resident base %d has no mapping core: %v, model %v", step, m.Base, m.Cores, r.m[m.Base].cores)
		}
		i++
	})
	if i != len(bases) {
		t.Fatalf("step %d: ForEachMapping visited %d records, model %d", step, i, len(bases))
	}
	words := (pages + 63) / 64
	for _, vpn := range fuzzProbes {
		mb, rm := r.find(vpn)
		m, ok := p.Mapping(vpn)
		if ok != (rm != nil) {
			t.Fatalf("step %d: Mapping(%d) resident=%v, model %v", step, vpn, ok, rm != nil)
		}
		wantCount := 0
		if rm != nil {
			wantCount = rm.cores.Count()
			if m.Base != mb || m.PFN != rm.pfn || m.Cores != rm.cores {
				t.Fatalf("step %d: Mapping(%d) = {%d %d %v}, model {%d %d %v}",
					step, vpn, m.Base, m.PFN, m.Cores, mb, rm.pfn, rm.cores)
			}
		}
		if got := p.CoreMapCount(vpn); got != wantCount {
			t.Fatalf("step %d: CoreMapCount(%d) = %d, model %d", step, vpn, got, wantCount)
		}
		for c := 0; c < r.n; c++ {
			core := sim.CoreID(c)
			var want refBits
			var bits []refBits
			if rm != nil {
				bits = rm.ptes[core]
			}
			pte, size, ok := p.Lookup(core, vpn)
			if ok != (bits != nil) {
				t.Fatalf("step %d: core %d Lookup(%d) ok=%v, model PTE=%v", step, c, vpn, ok, bits != nil)
			}
			if ok {
				want = bits[r.member(mb, vpn)]
				wantPFN := rm.pfn
				if r.size == sim.Size64k {
					wantPFN += int64(vpn - mb) // member PTEs carry the member frame
				}
				if size != r.size || pte.PFN() != wantPFN ||
					pte.Has(pagetable.Accessed) != want.a || pte.Has(pagetable.Dirty) != want.d {
					t.Fatalf("step %d: core %d Lookup(%d) = %v %v, model size %v pfn %d %+v",
						step, c, vpn, pte, size, r.size, wantPFN, want)
				}
			}
			a, d, tracked := p.Summary(core, vpn)
			if tracked != (uint64(vpn>>6) < uint64(words)) {
				t.Fatalf("step %d: core %d Summary(%d) tracked=%v with %d sized pages", step, c, vpn, tracked, pages)
			}
			if size == sim.Size2M {
				want = refBits{}
			}
			if tracked && (a != want.a || d != want.d) {
				t.Fatalf("step %d: core %d Summary(%d) A=%v D=%v, PTE %+v", step, c, vpn, a, d, want)
			}
		}
	}
}
