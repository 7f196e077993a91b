package pagetable

import (
	"fmt"

	"cmcp/internal/sim"
)

// Radix geometry: four levels of 9 bits index a 36-bit VPN space
// (256 TB of virtual address space at 4 kB granularity), mirroring
// x86-64 long mode.
const (
	radixBits   = 9
	radixFanout = 1 << radixBits
	radixMask   = radixFanout - 1
	numLevels   = 4
)

// node is one radix-tree node. Leaf nodes (level 0) use ptes; interior
// nodes use children, except that a level-1 (PMD) slot holding a 2 MB
// mapping stores the large PTE in ptes and leaves children nil.
type node struct {
	children [radixFanout]*node
	ptes     []PTE // lazily allocated; used at level 0 and for 2M entries at level 1
}

func (n *node) pteSlot(idx int) *PTE {
	if n.ptes == nil {
		n.ptes = make([]PTE, radixFanout)
	}
	return &n.ptes[idx]
}

// Table is one four-level radix page table. It is not safe for
// concurrent use; the simulation engine serializes mutations and models
// locking costs separately (sim.Resource).
type Table struct {
	root     node
	present  int // number of present 4 kB-equivalent leaf PTEs (2M counts as 512)
	mappings int // number of present mappings of any size

	// One-entry PMD memo for walk. Interior nodes are created lazily
	// but never removed or replaced, so a cached pointer cannot go
	// stale. pmdKey is vpn>>(2*radixBits) + 1; zero means empty.
	pmdKey sim.PageID
	pmd    *node
}

// New returns an empty table.
func New() *Table { return &Table{} }

// PresentPages returns the number of present base pages (a 2 MB mapping
// counts as 512, a 64 kB group as its 16 member PTEs).
func (t *Table) PresentPages() int { return t.present }

// Mappings returns the number of distinct present mappings.
func (t *Table) Mappings() int { return t.mappings }

func levelIndex(vpn sim.PageID, level int) int {
	return int(vpn>>(uint(level)*radixBits)) & radixMask
}

// walk descends to the level-1 (PMD) node for vpn, allocating interior
// nodes when create is true. It returns nil when the path is absent.
// Consecutive touches overwhelmingly land in the same 1 GB-ish region,
// so the PMD memo turns the two-level descent into one compare.
func (t *Table) walk(vpn sim.PageID, create bool) *node {
	key := vpn>>(2*radixBits) + 1
	if t.pmdKey == key {
		return t.pmd
	}
	n := &t.root
	for level := numLevels - 1; level > 1; level-- {
		idx := levelIndex(vpn, level)
		next := n.children[idx]
		if next == nil {
			if !create {
				return nil
			}
			next = &node{}
			n.children[idx] = next
		}
		n = next
	}
	t.pmdKey, t.pmd = key, n
	return n
}

// leaf returns the level-0 node for vpn.
func (t *Table) leaf(vpn sim.PageID, create bool) *node {
	pmd := t.walk(vpn, create)
	if pmd == nil {
		return nil
	}
	idx := levelIndex(vpn, 1)
	n := pmd.children[idx]
	if n == nil {
		if !create {
			return nil
		}
		n = &node{}
		pmd.children[idx] = n
	}
	return n
}

// Lookup resolves vpn. It follows 2 MB PMD entries and returns the
// governing PTE, the mapping size, and whether a translation exists.
// For a 64 kB group it returns the individual 4 kB member entry (which
// carries the Hint64k bit); callers decide group behaviour.
func (t *Table) Lookup(vpn sim.PageID) (PTE, sim.PageSize, bool) {
	return deref(slotIn(t.walk(vpn, false), vpn))
}

// LookupRO resolves vpn exactly like Lookup but never writes the PMD
// memo (walk refreshes it even on read-only descents, which is a data
// race under concurrency). Any number of goroutines may call LookupRO
// on a table nothing is mutating.
func (t *Table) LookupRO(vpn sim.PageID) (PTE, sim.PageSize, bool) {
	return deref(slotIn(t.walkRO(vpn), vpn))
}

// walkRO is walk(vpn, false) without the memo refresh: it may read the
// memo but never writes it.
func (t *Table) walkRO(vpn sim.PageID) *node {
	if key := vpn>>(2*radixBits) + 1; t.pmdKey == key {
		return t.pmd
	}
	n := &t.root
	for level := numLevels - 1; level > 1; level-- {
		next := n.children[levelIndex(vpn, level)]
		if next == nil {
			return nil
		}
		n = next
	}
	return n
}

// slotIn returns the present entry translating vpn below pmd — the
// 2 MB PMD entry or the 4 kB leaf entry — and its mapping size, or nil
// when there is none.
func slotIn(pmd *node, vpn sim.PageID) (*PTE, sim.PageSize) {
	if pmd == nil {
		return nil, sim.Size4k
	}
	if pmd.ptes != nil {
		if e := &pmd.ptes[levelIndex(vpn, 1)]; e.Has(Present | Large) {
			return e, sim.Size2M
		}
	}
	leafNode := pmd.children[levelIndex(vpn, 1)]
	if leafNode == nil || leafNode.ptes == nil {
		return nil, sim.Size4k
	}
	e := &leafNode.ptes[levelIndex(vpn, 0)]
	if !e.Has(Present) {
		return nil, sim.Size4k
	}
	if e.Has(Hint64k) {
		return e, sim.Size64k
	}
	return e, sim.Size4k
}

// deref turns slotIn's result into Lookup's.
func deref(e *PTE, size sim.PageSize) (PTE, sim.PageSize, bool) {
	if e == nil {
		return 0, sim.Size4k, false
	}
	return *e, size, true
}

// Set installs a 4 kB entry for vpn, replacing any previous 4 kB entry.
// Installing over a 2 MB mapping is a kernel bug and panics.
func (t *Table) Set(vpn sim.PageID, e PTE) {
	if e.Has(Large) {
		panic("pagetable: Set with Large bit; use Set2M")
	}
	pmd := t.walk(vpn, true)
	if pmd.ptes != nil && pmd.ptes[levelIndex(vpn, 1)].Has(Present|Large) {
		panic(fmt.Sprintf("pagetable: 4k Set inside live 2M mapping at vpn %d", vpn))
	}
	leafNode := t.leaf(vpn, true)
	slot := leafNode.pteSlot(levelIndex(vpn, 0))
	was := slot.Has(Present)
	*slot = e
	if e.Has(Present) && !was {
		t.present++
		t.mappings++
	} else if !e.Has(Present) && was {
		t.present--
		t.mappings--
	}
}

// Clear removes the 4 kB entry for vpn, returning the previous entry.
func (t *Table) Clear(vpn sim.PageID) PTE {
	leafNode := t.leaf(vpn, false)
	if leafNode == nil || leafNode.ptes == nil {
		return 0
	}
	slot := &leafNode.ptes[levelIndex(vpn, 0)]
	old := *slot
	if old.Has(Present) {
		t.present--
		t.mappings--
	}
	*slot = 0
	return old
}

// Update applies fn to the present 4 kB entry for vpn and stores the
// result. It reports whether an entry was present. fn must not change
// the Present or Large bits.
func (t *Table) Update(vpn sim.PageID, fn func(PTE) PTE) bool {
	leafNode := t.leaf(vpn, false)
	if leafNode == nil || leafNode.ptes == nil {
		return false
	}
	slot := &leafNode.ptes[levelIndex(vpn, 0)]
	if !slot.Has(Present) {
		return false
	}
	*slot = fn(*slot)
	return true
}

// Touch simulates the MMU on an access to vpn: it sets the accessed
// bit (and, for writes, the dirty bit) on the entry translating vpn in
// one walk and returns the updated entry and its size. For a 64 kB
// group the bits land on the touched member only (§4); a 2 MB mapping
// carries them on its PMD entry. ok is false when vpn has no
// translation.
func (t *Table) Touch(vpn sim.PageID, write bool) (e PTE, size sim.PageSize, ok bool) {
	slot, size := slotIn(t.walk(vpn, false), vpn)
	if slot != nil {
		*slot |= Accessed
		if write {
			*slot |= Dirty
		}
	}
	return deref(slot, size)
}

// Set2M installs a 2 MB mapping at the PMD level. vpn must be 2 MB
// aligned and no 4 kB mappings may exist underneath.
func (t *Table) Set2M(vpn sim.PageID, e PTE) error {
	if !sim.Size2M.Aligned(vpn) {
		return fmt.Errorf("pagetable: Set2M at unaligned vpn %d", vpn)
	}
	pmd := t.walk(vpn, true)
	idx := levelIndex(vpn, 1)
	if under := pmd.children[idx]; under != nil {
		for _, p := range under.ptes {
			if p.Has(Present) {
				return fmt.Errorf("pagetable: Set2M over live 4k mappings at vpn %d", vpn)
			}
		}
	}
	slot := pmd.pteSlot(idx)
	was := slot.Has(Present)
	*slot = e | Large | Present
	if !was {
		t.present += sim.Span2M
		t.mappings++
	}
	return nil
}

// Clear2M removes the 2 MB mapping covering vpn, returning the previous
// entry.
func (t *Table) Clear2M(vpn sim.PageID) PTE {
	vpn = sim.Size2M.Align(vpn)
	pmd := t.walk(vpn, false)
	if pmd == nil || pmd.ptes == nil {
		return 0
	}
	slot := &pmd.ptes[levelIndex(vpn, 1)]
	old := *slot
	if old.Has(Present | Large) {
		t.present -= sim.Span2M
		t.mappings--
		*slot = 0
	}
	return old
}

// Update2M applies fn to the present 2 MB entry covering vpn.
func (t *Table) Update2M(vpn sim.PageID, fn func(PTE) PTE) bool {
	vpn = sim.Size2M.Align(vpn)
	pmd := t.walk(vpn, false)
	if pmd == nil || pmd.ptes == nil {
		return false
	}
	slot := &pmd.ptes[levelIndex(vpn, 1)]
	if !slot.Has(Present | Large) {
		return false
	}
	*slot = fn(*slot)
	return true
}

// ForEachPresent calls fn for every present mapping: once per 4 kB
// entry (including 64 kB group members) and once per 2 MB entry with
// its aligned VPN. Iteration order is ascending VPN.
func (t *Table) ForEachPresent(fn func(vpn sim.PageID, e PTE, size sim.PageSize)) {
	t.forEach(&t.root, 0, numLevels-1, fn)
}

func (t *Table) forEach(n *node, base sim.PageID, level int, fn func(sim.PageID, PTE, sim.PageSize)) {
	if level == 0 {
		if n.ptes == nil {
			return
		}
		for i, e := range n.ptes {
			if e.Has(Present) {
				size := sim.Size4k
				if e.Has(Hint64k) {
					size = sim.Size64k
				}
				fn(base+sim.PageID(i), e, size)
			}
		}
		return
	}
	span := sim.PageID(1) << (uint(level) * radixBits)
	for i := 0; i < radixFanout; i++ {
		if level == 1 && n.ptes != nil {
			if e := n.ptes[i]; e.Has(Present | Large) {
				fn(base+sim.PageID(i)*span, e, sim.Size2M)
				continue
			}
		}
		if c := n.children[i]; c != nil {
			t.forEach(c, base+sim.PageID(i)*span, level-1, fn)
		}
	}
}
