package dense

import "cmcp/internal/sim"

// List is an intrusive doubly-linked list over page-indexed link
// slices: O(1) membership, push, remove and pop with zero per-node
// allocation. Links store page+1 so zeroed slices mean "not linked";
// a page is on the list iff it has a neighbour or is the head.
type List struct {
	prev, next []int32 // page -> neighbour page + 1; 0 = none
	head, tail int32   // page + 1; 0 = empty
	n          int
}

// NewList returns an empty list pre-sized for pages in [0, hint); it
// grows past that range on demand.
func NewList(hint int) *List {
	return &List{prev: make([]int32, hint), next: make([]int32, hint)}
}

// Len returns the number of elements.
func (l *List) Len() int { return l.n }

// Has reports whether page is on the list.
func (l *List) Has(page sim.PageID) bool {
	if page < 0 || page >= sim.PageID(len(l.prev)) {
		return false
	}
	return l.prev[page] != 0 || l.next[page] != 0 || l.head == int32(page)+1
}

// PushTail appends page as the newest element. Pushing a page that is
// already on the list is a bug in the caller and panics.
func (l *List) PushTail(page sim.PageID) {
	if l.Has(page) {
		panic("dense: page already on list")
	}
	l.pushTail(page)
}

func (l *List) pushTail(page sim.PageID) {
	if page >= sim.PageID(len(l.prev)) {
		l.grow(int(page) + 1)
	}
	p := int32(page) + 1
	l.prev[page] = l.tail
	l.next[page] = 0
	if l.tail != 0 {
		l.next[l.tail-1] = p
	} else {
		l.head = p
	}
	l.tail = p
	l.n++
}

// PopHead removes and returns the oldest element.
func (l *List) PopHead() (sim.PageID, bool) {
	if l.head == 0 {
		return 0, false
	}
	page := sim.PageID(l.head - 1)
	l.Remove(page)
	return page, true
}

// Remove deletes page if present, reporting whether it was.
func (l *List) Remove(page sim.PageID) bool {
	if !l.Has(page) {
		return false
	}
	prev, next := l.prev[page], l.next[page]
	if prev != 0 {
		l.next[prev-1] = next
	} else {
		l.head = next
	}
	if next != 0 {
		l.prev[next-1] = prev
	} else {
		l.tail = prev
	}
	l.prev[page], l.next[page] = 0, 0
	l.n--
	return true
}

// MoveToTail refreshes page as the newest element.
func (l *List) MoveToTail(page sim.PageID) bool {
	if !l.Remove(page) {
		return false
	}
	l.pushTail(page)
	return true
}

// ForEachFromHead iterates oldest-to-newest until fn returns false.
// fn must not mutate the list.
func (l *List) ForEachFromHead(fn func(page sim.PageID) bool) {
	for p := l.head; p != 0; p = l.next[p-1] {
		if !fn(sim.PageID(p - 1)) {
			return
		}
	}
}

// grow extends both link slices to n zeroed entries (amortized by
// append's capacity doubling).
func (l *List) grow(n int) {
	l.prev = append(l.prev, make([]int32, n-len(l.prev))...)
	l.next = append(l.next, make([]int32, n-len(l.next))...)
}
