package pagetable

import (
	"sort"
	"testing"

	"cmcp/internal/sim"
)

// tableModel is the reference the fuzzer checks Table against: the raw
// 4 kB entries (present or not, as Set stored them) and the 2 MB
// entries by aligned base.
type tableModel struct {
	small map[sim.PageID]PTE
	large map[sim.PageID]PTE
}

func (m *tableModel) lookup(vpn sim.PageID) (PTE, sim.PageSize, bool) {
	if e, ok := m.large[sim.Size2M.Align(vpn)]; ok {
		return e, sim.Size2M, true
	}
	e := m.small[vpn]
	switch {
	case !e.Has(Present):
		return 0, sim.Size4k, false
	case e.Has(Hint64k):
		return e, sim.Size64k, true
	}
	return e, sim.Size4k, true
}

// present returns the model's present entries in ascending VPN order,
// as ForEachPresent must visit them.
func (m *tableModel) present() []visit {
	var out []visit
	for v := range m.small {
		if e, size, ok := m.lookup(v); ok && size != sim.Size2M {
			out = append(out, visit{v, e, size})
		}
	}
	for v, e := range m.large {
		out = append(out, visit{v, e, sim.Size2M})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].vpn < out[j].vpn })
	return out
}

type visit struct {
	vpn  sim.PageID
	e    PTE
	size sim.PageSize
}

// sparseWindows are the bases of the fuzzer's high VPN windows of
// 2^14 pages each: across the first chunk boundary, and up to the last
// VPN of the space.
var sparseWindows = [4]sim.PageID{1<<18 - 1<<13, 1<<27 - 1<<13, 1<<35 - 1<<13, VPNSpace - 1<<14}

// fuzzVPN draws a VPN from op's two address bytes: from the dense
// window [0, 4096) when op's top bit is clear, else from a sparse
// window.
func fuzzVPN(op, hi, lo byte) sim.PageID {
	v := sim.PageID(hi)<<8 | sim.PageID(lo)
	if op&0x80 == 0 {
		return v & 4095
	}
	return sparseWindows[v>>14] + v&(1<<14-1)
}

// FuzzTableOps drives the table with an arbitrary operation stream and
// compares it with a map model after every op: the op's result,
// Lookup of the op's VPN (and of VPNs outside the space, which must
// never resolve), PresentPages, Mappings, and ForEachPresent's
// content and ascending order. Live 64 kB groups must stay well
// formed. Each op is four bytes: kind, two address bytes, an argument.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{9, 9, 9, 1, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		tab := New()
		m := &tableModel{small: map[sim.PageID]PTE{}, large: map[sim.PageID]PTE{}}
		groups := make(map[sim.PageID]bool) // live 64k groups we created
		inGroup := func(vpn sim.PageID) bool { return groups[sim.Size64k.Align(vpn)] }
		inLarge := func(vpn sim.PageID) bool { _, ok := m.large[sim.Size2M.Align(vpn)]; return ok }
		bits := func(arg byte) PTE { return PTE(arg) & (Accessed | Dirty) }
		for i := 0; i+3 < len(ops); i += 4 {
			op, arg := ops[i], ops[i+3]
			vpn := fuzzVPN(op, ops[i+1], ops[i+2])
			switch (op & 0x7f) % 10 {
			case 0: // 4k set, present or not, outside groups and 2M blocks
				if inGroup(vpn) || inLarge(vpn) {
					continue
				}
				e := MakePTE(int64(arg), PTE(arg)&(Present|Writable|Accessed|Dirty))
				tab.Set(vpn, e)
				m.small[vpn] = e
			case 1: // 4k clear outside groups
				if inGroup(vpn) {
					continue
				}
				if got, want := tab.Clear(vpn), m.small[vpn]; got != want {
					t.Fatalf("Clear(%d) = %v, want %v", vpn, got, want)
				}
				delete(m.small, vpn)
			case 2: // 64k group set on a free aligned slot
				base := sim.Size64k.Align(vpn)
				free := true
				for j := sim.PageID(0); j < sim.Span64k; j++ {
					if _, _, ok := m.lookup(base + j); ok {
						free = false
						break
					}
				}
				if !free {
					continue
				}
				pfn := int64(arg) * sim.Span64k
				if err := tab.Set64k(base, pfn, Writable); err != nil {
					t.Fatalf("Set64k: %v", err)
				}
				for j := sim.PageID(0); j < sim.Span64k; j++ {
					m.small[base+j] = MakePTE(pfn+int64(j), Writable|Present|Hint64k)
				}
				groups[base] = true
			case 3: // clear a group we own
				base := sim.Size64k.Align(vpn)
				if !groups[base] {
					continue
				}
				want := m.small[base]
				for j := sim.PageID(0); j < sim.Span64k; j++ {
					want |= m.small[base+j] & (Accessed | Dirty)
					delete(m.small, base+j)
				}
				if got := tab.Clear64k(base); got != want {
					t.Fatalf("Clear64k(%d) = %v, want %v", base, got, want)
				}
				delete(groups, base)
			case 4: // touch
				write := arg&1 == 1
				e, size, ok := tab.Touch(vpn, write)
				if we, wsize, wok := m.lookup(vpn); wok {
					we |= Accessed
					if write {
						we |= Dirty
					}
					if wsize == sim.Size2M {
						m.large[sim.Size2M.Align(vpn)] = we
					} else {
						m.small[vpn] = we
					}
					if !ok || e != we || size != wsize {
						t.Fatalf("Touch(%d) = %v %v %v, want %v %v", vpn, e, size, ok, we, wsize)
					}
				} else if ok {
					t.Fatalf("Touch(%d) resolved an absent page", vpn)
				}
			case 5: // 2M set
				base := sim.Size2M.Align(vpn)
				busy := false
				for j := sim.PageID(0); j < sim.Span2M; j++ {
					if m.small[base+j].Has(Present) {
						busy = true
						break
					}
				}
				e := MakePTE(int64(arg)*sim.Span2M, PTE(arg)&(Writable|Accessed|Dirty))
				if err := tab.Set2M(base, e); (err != nil) != busy {
					t.Fatalf("Set2M(%d) err = %v, want error %v", base, err, busy)
				}
				if !busy {
					m.large[base] = e | Large | Present
				}
			case 6: // 2M clear
				base := sim.Size2M.Align(vpn)
				if got, want := tab.Clear2M(vpn), m.large[base]; got != want {
					t.Fatalf("Clear2M(%d) = %v, want %v", vpn, got, want)
				}
				delete(m.large, base)
			case 7: // 2M update
				base := sim.Size2M.Align(vpn)
				want, live := m.large[base]
				if tab.Update2M(vpn, func(e PTE) PTE { return e ^ bits(arg) }) != live {
					t.Fatalf("Update2M(%d) reported %v", vpn, !live)
				}
				if live {
					m.large[base] = want ^ bits(arg)
				}
			default: // 4k update
				want := m.small[vpn]
				live := want.Has(Present)
				if tab.Update(vpn, func(e PTE) PTE { return e ^ bits(arg) }) != live {
					t.Fatalf("Update(%d) reported %v", vpn, !live)
				}
				if live {
					m.small[vpn] = want ^ bits(arg)
				}
			}
			checkAgainstModel(t, tab, m, vpn)
		}
		for base := range groups {
			if err := tab.Validate64k(base); err != nil {
				t.Fatalf("group %d invalid: %v", base, err)
			}
		}
	})
}

// checkAgainstModel compares tab with m at vpn, outside the VPN space,
// in its counters and in a full ForEachPresent walk.
func checkAgainstModel(t *testing.T, tab *Table, m *tableModel, vpn sim.PageID) {
	t.Helper()
	e, size, ok := tab.Lookup(vpn)
	we, wsize, wok := m.lookup(vpn)
	if ok != wok || (ok && (e != we || size != wsize)) {
		t.Fatalf("Lookup(%d) = %v %v %v, want %v %v %v", vpn, e, size, ok, we, wsize, wok)
	}
	for _, out := range []sim.PageID{vpn + VPNSpace, -1 - vpn} {
		if _, _, ok := tab.Lookup(out); ok {
			t.Fatalf("Lookup(%d) outside the VPN space resolved", out)
		}
	}
	want := m.present()
	var got []visit
	tab.ForEachPresent(func(v sim.PageID, e PTE, size sim.PageSize) { got = append(got, visit{v, e, size}) })
	if len(got) != len(want) {
		t.Fatalf("ForEachPresent visited %d mappings, want %d", len(got), len(want))
	}
	pages := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEachPresent visit %d = %+v, want %+v", i, got[i], want[i])
		}
		pages++ // a 4 kB entry or one 64 kB group member
		if want[i].size == sim.Size2M {
			pages += sim.Span2M - 1
		}
	}
	if tab.Mappings() != len(want) || tab.PresentPages() != pages {
		t.Fatalf("Mappings/PresentPages = %d/%d, want %d/%d", tab.Mappings(), tab.PresentPages(), len(want), pages)
	}
}
