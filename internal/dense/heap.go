package dense

import (
	"fmt"

	"cmcp/internal/sim"
)

// Heap is a positioned binary min-heap of pages ordered by (key, seq):
// the smallest key first, and among equal keys the page pushed first.
// seq is assigned at Push and kept when Update changes the key, so the
// order is total and the pop sequence does not depend on the heap's
// layout. Items are held by value and an Index maps each page to its
// slot, so membership, key lookup, Update and Remove never hash or
// allocate.
type Heap struct {
	items []heapItem
	pos   Index // page -> slot in items
	seq   uint64
}

type heapItem struct {
	base sim.PageID
	key  float64
	seq  uint64 // push order: older first among equal keys
}

func heapLess(a, b *heapItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// NewHeap returns an empty heap with room for n pages before its item
// array grows, and its position index pre-sized for pages in [0, hint).
func NewHeap(n, hint int) Heap {
	return Heap{items: make([]heapItem, 0, n), pos: NewIndex(hint)}
}

// Len returns the number of pages on the heap.
func (h *Heap) Len() int { return len(h.items) }

// Key returns page's key, and false when page is not on the heap.
func (h *Heap) Key(page sim.PageID) (float64, bool) {
	i := h.pos.Get(page)
	if i < 0 {
		return 0, false
	}
	return h.items[i].key, true
}

// Push adds page with the given key as the newest entry. Pushing a page
// that is already on the heap is a bug in the caller and panics.
func (h *Heap) Push(page sim.PageID, key float64) {
	if h.pos.Has(page) {
		panic("dense: page already on heap")
	}
	h.seq++
	h.items = append(h.items, heapItem{base: page, key: key, seq: h.seq})
	h.pos.Set(page, int32(len(h.items)-1))
	h.up(len(h.items) - 1)
}

// Min returns the first page in (key, seq) order and its key, or false
// when the heap is empty.
func (h *Heap) Min() (sim.PageID, float64, bool) {
	if len(h.items) == 0 {
		return 0, 0, false
	}
	return h.items[0].base, h.items[0].key, true
}

// PopMin removes and returns the first page in (key, seq) order.
func (h *Heap) PopMin() (sim.PageID, bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	page := h.items[0].base
	h.removeAt(0)
	return page, true
}

// Remove deletes page if present, reporting whether it was.
func (h *Heap) Remove(page sim.PageID) bool {
	i := h.pos.Get(page)
	if i < 0 {
		return false
	}
	h.removeAt(int(i))
	return true
}

// Update sets page's key, keeping its push order, and reports whether
// page is on the heap.
func (h *Heap) Update(page sim.PageID, key float64) bool {
	i := h.pos.Get(page)
	if i < 0 {
		return false
	}
	h.items[i].key = key
	if !h.up(int(i)) {
		h.down(int(i))
	}
	return true
}

// Shift adds delta to every key. A uniform shift keeps the heap order
// as long as it does not round two distinct keys together, which
// integer keys and integer shifts never do.
func (h *Heap) Shift(delta float64) {
	for i := range h.items {
		h.items[i].key += delta
	}
}

// Range calls fn for every page on the heap in ascending page order
// until fn returns false. fn must not mutate the heap.
func (h *Heap) Range(fn func(page sim.PageID) bool) {
	h.pos.Range(func(page sim.PageID, _ int32) bool { return fn(page) })
}

// CheckInvariants verifies the (key, seq) min-heap property and that
// the position index is the exact inverse of the item layout.
func (h *Heap) CheckInvariants() error {
	for i := 1; i < len(h.items); i++ {
		c, p := &h.items[i], &h.items[(i-1)/2]
		if heapLess(c, p) {
			return fmt.Errorf("dense: heap violation at %d: (%v,%d) < parent (%v,%d)",
				i, c.key, c.seq, p.key, p.seq)
		}
	}
	for i := range h.items {
		if got := h.pos.Get(h.items[i].base); int(got) != i {
			return fmt.Errorf("dense: heap pos[%d] = %d, want slot %d", h.items[i].base, got, i)
		}
	}
	count := 0
	h.pos.Range(func(sim.PageID, int32) bool { count++; return true })
	if count != len(h.items) {
		return fmt.Errorf("dense: heap index holds %d pages, heap holds %d", count, len(h.items))
	}
	return nil
}

// set places it in slot i and records the slot in the index (the
// Index's +1 encoding, written directly: it is known to be in range).
func (h *Heap) set(i int, it heapItem) {
	h.items[i] = it
	h.pos.v[it.base] = int32(i) + 1
}

// up sifts slot i toward the root, reporting whether it moved. Parents
// move down into the hole and the item is written once, at its place.
func (h *Heap) up(i int) bool {
	it, start := h.items[i], i
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(&it, &h.items[parent]) {
			break
		}
		h.set(i, h.items[parent])
		i = parent
	}
	if i == start {
		return false
	}
	h.set(i, it)
	return true
}

// down sifts slot i toward the leaves the same way, each step taking
// the smaller child.
func (h *Heap) down(i int) {
	it, n := h.items[i], len(h.items)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && heapLess(&h.items[r], &h.items[c]) {
			c = r
		}
		if !heapLess(&h.items[c], &it) {
			break
		}
		h.set(i, h.items[c])
		i = c
	}
	h.set(i, it)
}

// removeAt deletes slot i, restoring heap order.
func (h *Heap) removeAt(i int) {
	last := len(h.items) - 1
	h.pos.Delete(h.items[i].base)
	if i < last {
		h.set(i, h.items[last])
	}
	h.items = h.items[:last]
	if i < last && !h.up(i) {
		h.down(i)
	}
}
