package tlb

import (
	"slices"
	"testing"

	"cmcp/internal/sim"
)

// refSet is the naive model of one fifoSet: presence in a map, FIFO
// order in a slice that keeps stale slots, and the same compaction at
// the same trigger points (their timing is semantically visible).
type refSet struct {
	cap   int
	live  map[sim.PageID]sim.PageSize
	queue []sim.PageID
	head  int
}

func (s *refSet) insert(base sim.PageID, size sim.PageSize) (sim.PageID, bool) {
	if _, ok := s.live[base]; ok || s.cap <= 0 {
		return 0, false
	}
	var evicted sim.PageID
	var ok bool
	for len(s.live) >= s.cap {
		q := s.queue[s.head]
		s.head++
		if _, live := s.live[q]; live {
			delete(s.live, q)
			evicted, ok = q, true
		}
	}
	s.live[base] = size
	s.queue = append(s.queue, base)
	if len(s.queue) > 4*s.cap+64 {
		var kept []sim.PageID
		for _, q := range s.queue[s.head:] {
			if _, live := s.live[q]; live && !slices.Contains(kept, q) {
				kept = append(kept, q)
			}
		}
		s.queue, s.head = kept, 0
	} else if s.head > 64 && s.head*2 > len(s.queue) {
		s.queue, s.head = slices.Clone(s.queue[s.head:]), 0
	}
	return evicted, ok
}

// refTLB models a TLB as four refSets.
type refTLB struct {
	l1 [3]refSet
	l2 refSet
}

func newRefTLB(cfg Config) *refTLB {
	set := func(c int) refSet { return refSet{cap: c, live: map[sim.PageID]sim.PageSize{}} }
	return &refTLB{
		l1: [3]refSet{set(cfg.L1Entries4k), set(cfg.L1Entries64k), set(cfg.L1Entries2M)},
		l2: set(cfg.L2Entries),
	}
}

func (r *refTLB) install(base sim.PageID, size sim.PageSize) {
	if vb, ok := r.l1[size].insert(base, size); ok {
		r.l2.insert(vb, size)
	}
}

func (r *refTLB) lookup(vpn sim.PageID) HitLevel {
	for _, s := range sizes {
		if _, ok := r.l1[s].live[s.Align(vpn)]; ok {
			return HitL1
		}
	}
	for _, s := range sizes {
		b := s.Align(vpn)
		if sz, ok := r.l2.live[b]; ok && sz == s {
			delete(r.l2.live, b)
			r.install(b, s)
			return HitL2
		}
	}
	return Miss
}

func (r *refTLB) invalidate(vpn sim.PageID) bool {
	hit := false
	for _, s := range sizes {
		b := s.Align(vpn)
		if _, ok := r.l1[s].live[b]; ok {
			delete(r.l1[s].live, b)
			hit = true
		}
		if sz, ok := r.l2.live[b]; ok && sz == s {
			delete(r.l2.live, b)
			hit = true
		}
	}
	return hit
}

// entryKey packs one cached translation as level<<24 | size<<16 | base
// (fuzzed bases stay below 2^16).
func entryKey(base sim.PageID, size sim.PageSize, level int) uint32 {
	return uint32(level)<<24 | uint32(size)<<16 | uint32(base)
}

// entries lists every cached translation, sorted by entryKey.
func (r *refTLB) entries() []uint32 {
	var out []uint32
	for _, s := range sizes {
		for b := range r.l1[s].live {
			out = append(out, entryKey(b, s, 1))
		}
	}
	for b, s := range r.l2.live {
		out = append(out, entryKey(b, s, 2))
	}
	slices.Sort(out)
	return out
}

func entriesOf(t *TLB) []uint32 {
	var out []uint32
	t.ForEachEntry(func(base sim.PageID, size sim.PageSize, level int) {
		out = append(out, entryKey(base, size, level))
	})
	slices.Sort(out)
	return out
}

// FuzzTLB drives a small TLB and the naive refTLB with the same ops and
// compares every observable after each one. The first byte sets the
// geometry; every further pair of bytes (o, a) is one op on vpn
// (o&3)<<8 | a — two 2 MB regions, 64 groups of 64 kB — chosen by o>>4:
//
//	0–2 Insert 4 kB   3–4 Insert 64 kB   5 Insert 2 MB
//	6–9 Lookup        10–15 Invalidate
//
// The seed corpus lives in testdata/fuzz/FuzzTLB.
func FuzzTLB(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := data[0]
		cfg := Config{
			L1Entries4k:  int(g&3) + 1,
			L1Entries64k: int(g >> 2 & 3),
			L1Entries2M:  int(g>>4&1) + 1,
			L2Entries:    int(g >> 5),
		}
		tb, ref := New(cfg), newRefTLB(cfg)
		for step := 0; 2*step+2 < len(data); step++ {
			o, a := data[1+2*step], data[2+2*step]
			vpn := sim.PageID(o&3)<<8 | sim.PageID(a)
			switch o >> 4 {
			case 0, 1, 2:
				tb.Insert(vpn, sim.Size4k)
				ref.install(sim.Size4k.Align(vpn), sim.Size4k)
			case 3, 4:
				tb.Insert(vpn, sim.Size64k)
				ref.install(sim.Size64k.Align(vpn), sim.Size64k)
			case 5:
				tb.Insert(vpn, sim.Size2M)
				ref.install(sim.Size2M.Align(vpn), sim.Size2M)
			case 6, 7, 8, 9:
				if got, want := tb.Lookup(vpn), ref.lookup(vpn); got != want {
					t.Fatalf("step %d: Lookup(%d) = %v, want %v", step, vpn, got, want)
				}
			default:
				if got, want := tb.Invalidate(vpn), ref.invalidate(vpn); got != want {
					t.Fatalf("step %d: Invalidate(%d) = %v, want %v", step, vpn, got, want)
				}
			}
			if got, want := tb.Entries(), len(ref.entries()); got != want {
				t.Fatalf("step %d: Entries() = %d, want %d", step, got, want)
			}
			if got, want := entriesOf(tb), ref.entries(); !slices.Equal(got, want) {
				t.Fatalf("step %d: entries (level<<24|size<<16|base)\n got %#x\nwant %#x", step, got, want)
			}
			if err := tb.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}
