package pspt

import (
	"math/rand"
	"testing"

	"cmcp/internal/pagetable"
	"cmcp/internal/sim"
)

// checkSummary fails t unless every summary bit in [0, pages) equals
// the accessed/dirty bit of the matching 4 kB or 64 kB member PTE on
// every core, and 2 MB-mapped or unmapped pages carry no bits.
func checkSummary(t *testing.T, p *PSPT, pages int, when string) {
	t.Helper()
	for c := 0; c < p.Cores(); c++ {
		core := sim.CoreID(c)
		for v := 0; v < pages; v++ {
			vpn := sim.PageID(v)
			pte, size, ok := p.Lookup(core, vpn)
			ok = ok && size != sim.Size2M
			a, d, tracked := p.Summary(core, vpn)
			if !tracked {
				t.Fatalf("%s: core %d vpn %d inside the sized range is untracked", when, c, v)
			}
			if wantA, wantD := ok && pte.Has(pagetable.Accessed), ok && pte.Has(pagetable.Dirty); a != wantA || d != wantD {
				t.Fatalf("%s: core %d vpn %d summary A=%v D=%v, PTE A=%v D=%v", when, c, v, a, d, wantA, wantD)
			}
		}
	}
}

func TestSummary4kScan(t *testing.T) {
	p := New(2, sim.Size4k, 64)
	p.Map(0, 5, 9, pagetable.Writable)
	p.CopyFromSibling(1, 5, pagetable.Writable)
	checkSummary(t, p, 64, "fresh map")
	p.Touch(0, 5, false)
	p.Touch(1, 5, true)
	checkSummary(t, p, 64, "after touches")
	if _, d, _ := p.Summary(0, 5); d {
		t.Error("a read must not set the dirty bit")
	}
	// Both bits now set on core 1: the next write takes the summary
	// path and changes nothing.
	p.Touch(1, 5, true)
	checkSummary(t, p, 64, "after a summary-hit write")
	acc, targets, _ := p.ScanAccessed(5, nil)
	if !acc || len(targets) != 2 {
		t.Errorf("scan = %v %v, want both cores", acc, targets)
	}
	checkSummary(t, p, 64, "after 4k scan")
	if a, d, _ := p.Summary(1, 5); a || !d {
		t.Errorf("scan must clear A and keep D: A=%v D=%v", a, d)
	}
	if acc, targets, _ := p.ScanAccessed(5, nil); acc || len(targets) != 0 {
		t.Errorf("idle rescan = %v %v", acc, targets)
	}
	// D without A: a write must walk to set the accessed bit again.
	p.Touch(1, 5, true)
	checkSummary(t, p, 64, "after a write to a scanned dirty page")
	if a, _, _ := p.Summary(1, 5); !a {
		t.Error("a write after a scan must set the accessed bit")
	}
}

func TestSummary64kGroupScan(t *testing.T) {
	p := New(2, sim.Size64k, 128)
	p.Map(0, 32, 64, pagetable.Writable)
	p.CopyFromSibling(1, 40, pagetable.Writable)
	p.Touch(0, 35, false)
	p.Touch(1, 39, true)
	p.Touch(1, 39, true) // summary hit
	checkSummary(t, p, 128, "after member touches")
	acc, targets, _ := p.ScanAccessed(32, nil)
	if !acc || len(targets) != 2 {
		t.Errorf("group scan = %v %v, want both cores", acc, targets)
	}
	checkSummary(t, p, 128, "after 64k group scan")
	p.Touch(1, 47, false)
	if acc, targets, _ := p.ScanAccessed(40, nil); !acc || len(targets) != 1 || targets[0] != 1 {
		t.Errorf("rescan = %v %v, want core 1 only", acc, targets)
	}
	checkSummary(t, p, 128, "after second group scan")
}

func TestSummary2MNeverTracked(t *testing.T) {
	p := New(1, sim.Size2M, 1024)
	p.Map(0, 512, 1024, pagetable.Writable)
	for i := 0; i < 2; i++ { // the second write must walk again
		p.Touch(0, 700, true)
	}
	checkSummary(t, p, 1024, "after 2M touch")
	if e, _, _ := p.Lookup(0, 700); !e.Has(pagetable.Accessed | pagetable.Dirty) {
		t.Error("the walk must set the 2M entry's bits")
	}
	if acc, _, _ := p.ScanAccessed(512, nil); !acc {
		t.Error("2M scan must see the accessed bit")
	}
	checkSummary(t, p, 1024, "after 2M scan")
}

func TestSummaryUnmapThenFreshMap(t *testing.T) {
	for _, size := range []sim.PageSize{sim.Size4k, sim.Size64k} {
		p := New(2, size, 64)
		p.Map(0, 16, 16, pagetable.Writable)
		p.CopyFromSibling(1, 16, pagetable.Writable)
		p.Touch(1, 16, true)
		if _, dirty, _ := p.Unmap(16); !dirty {
			t.Errorf("%v: Unmap must report the write", size)
		}
		checkSummary(t, p, 64, size.String()+" after Unmap")
		p.Map(0, 16, 32, pagetable.Writable)
		checkSummary(t, p, 64, size.String()+" after fresh Map")
		p.Touch(0, 16, true)
		if m, dirty, _ := p.Unmap(16); !dirty || m.PFN != 32 {
			t.Errorf("%v: write after remap: Unmap = frame %d, dirty %v; want frame 32, dirty", size, m.PFN, dirty)
		}
	}
}

// TestUnmapDirty64kMemberOnNonFirstCore: a store lands on the written
// member's own PTE (§4), so Unmap must see a write to member 7 on the
// second mapping core, tracked range or not.
func TestUnmapDirty64kMemberOnNonFirstCore(t *testing.T) {
	for _, pages := range []int{0, 64} {
		p := New(2, sim.Size64k, pages)
		p.Map(0, 32, 64, pagetable.Writable)
		p.CopyFromSibling(1, 32, pagetable.Writable)
		p.Touch(0, 32, false)
		p.Touch(1, 39, true)
		if _, dirty, _ := p.Unmap(32); !dirty {
			t.Errorf("pages=%d: Unmap missed the write to member 7 on core 1", pages)
		}
		p.Map(0, 32, 64, pagetable.Writable)
		p.Touch(0, 47, false)
		if _, dirty, _ := p.Unmap(32); dirty {
			t.Errorf("pages=%d: a read-only group must unmap clean", pages)
		}
	}
}

func TestTouchBeyondSizedRangeWalks(t *testing.T) {
	p := New(1, sim.Size4k, 64)
	p.Map(0, 200, 7, pagetable.Writable)
	if _, _, tracked := p.Summary(0, 200); tracked {
		t.Fatal("vpn 200 lies past the 64-page summary")
	}
	for i := 0; i < 2; i++ {
		p.Touch(0, 200, true)
	}
	if e, _, _ := p.Lookup(0, 200); !e.Has(pagetable.Accessed | pagetable.Dirty) {
		t.Error("the walk must set the PTE bits")
	}
	if acc, _, _ := p.ScanAccessed(200, nil); !acc {
		t.Error("untracked scan must walk and find the bit")
	}
}

// TestSummaryRandomOps drives a sized PSPT of each page size with a
// random mix of every path that installs, touches, scans or clears PTEs
// and checks the summary invariant after each step, plus that each
// touch of a mapped page leaves its bits set on the PTE.
func TestSummaryRandomOps(t *testing.T) {
	const pages, cores = 1024, 3
	r := rand.New(rand.NewSource(7))
	for _, size := range []sim.PageSize{sim.Size4k, sim.Size64k, sim.Size2M} {
		p := New(cores, size, pages)
		for step := 0; step < 2000; step++ {
			core := sim.CoreID(r.Intn(cores))
			vpn := sim.PageID(r.Intn(pages))
			switch op := r.Intn(10); {
			case op < 2:
				if _, ok := p.Mapping(vpn); ok {
					p.CopyFromSibling(core, vpn, pagetable.Writable)
					break
				}
				base := size.Align(vpn)
				if _, err := p.Map(core, base, int64(base), pagetable.Writable); err != nil {
					t.Fatal(err)
				}
			case op < 7:
				write := r.Intn(2) == 0
				p.Touch(core, vpn, write)
				want := pagetable.Accessed
				if write {
					want |= pagetable.Dirty
				}
				if pte, _, ok := p.Lookup(core, vpn); ok && !pte.Has(want) {
					t.Fatalf("%v step %d: Touch(core %d, vpn %d, write %v) left PTE %#x", size, step, core, vpn, write, pte)
				}
			case op < 8:
				p.ScanAccessed(vpn, nil)
			case op < 9:
				p.Unmap(vpn)
			}
			checkSummary(t, p, pages, size.String()+" random ops")
		}
	}
}
