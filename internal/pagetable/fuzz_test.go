package pagetable

import (
	"testing"

	"cmcp/internal/sim"
)

// FuzzTableOps drives the radix table with an arbitrary operation
// stream and checks the structural invariants after every step:
// PresentPages/Mappings match a full walk, lookups after Set resolve,
// and 64 kB groups stay well formed.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{9, 9, 9, 1, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		tab := New()
		groups := make(map[sim.PageID]bool) // live 64k groups we created
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			vpn := sim.PageID(arg) * 3 % 4096
			switch op % 5 {
			case 0: // 4k set, avoiding live 64k groups and 2M blocks
				if tab.Is64k(vpn) {
					continue
				}
				if _, size, ok := tab.Lookup(vpn); ok && size == sim.Size2M {
					continue
				}
				tab.Set(vpn, MakePTE(int64(arg), Present))
				if e, _, ok := tab.Lookup(vpn); !ok || e.PFN() != int64(arg) {
					t.Fatal("Set not visible")
				}
			case 1: // clear 4k (harmless on group members? Clear only non-group)
				if tab.Is64k(vpn) {
					continue
				}
				tab.Clear(vpn)
			case 2: // 64k group set on a free aligned slot
				base := sim.Size64k.Align(vpn)
				free := true
				for j := sim.PageID(0); j < sim.Span64k; j++ {
					if _, _, ok := tab.Lookup(base + j); ok {
						free = false
						break
					}
				}
				if !free {
					continue
				}
				if err := tab.Set64k(base, int64(base), Writable); err != nil {
					t.Fatalf("Set64k: %v", err)
				}
				groups[base] = true
			case 3: // clear a group we own
				base := sim.Size64k.Align(vpn)
				if groups[base] {
					tab.Clear64k(base)
					delete(groups, base)
				}
			case 4: // touch
				tab.Touch(vpn, arg%2 == 0)
			}
		}
		// Invariants: counters match a full walk; groups validate.
		n := 0
		tab.ForEachPresent(func(sim.PageID, PTE, sim.PageSize) { n++ })
		if n != tab.PresentPages() {
			t.Fatalf("walk found %d pages, counter says %d", n, tab.PresentPages())
		}
		for base := range groups {
			if err := tab.Validate64k(base); err != nil {
				t.Fatalf("group %d invalid: %v", base, err)
			}
		}
	})
}
