package dense

import (
	"slices"
	"testing"

	"cmcp/internal/sim"
)

// heapModel is the reference Heap: a map from page to (key, seq). Its
// minimum is found by a linear scan for the smallest key and, among
// those, the smallest seq, without the package's own comparison.
type heapModel struct {
	items map[sim.PageID]heapItem
	seq   uint64
}

func (m *heapModel) min() (heapItem, bool) {
	var best heapItem
	found := false
	for _, it := range m.items {
		if !found || it.key < best.key || (it.key == best.key && it.seq < best.seq) {
			best, found = it, true
		}
	}
	return best, found
}

// FuzzHeap drives a Heap and the model through byte-coded push,
// update, remove, pop-min and shift ops. After every op it checks the
// length, the minimum, every page's membership and key, the ascending
// page order of Range, and CheckInvariants. Keys and shifts are small
// integers, so keys tie often and a shift never rounds two of them
// together. The first byte sizes the heap's item array and index, so
// both growth paths are covered.
func FuzzHeap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const pages = 32
		h := NewHeap(int(data[0]%4), int(data[0]>>2%(pages+8)))
		m := heapModel{items: map[sim.PageID]heapItem{}}
		data = data[1:]
		for step := 0; len(data) >= 3; step, data = step+1, data[3:] {
			page := sim.PageID(data[1] % pages)
			key := float64(int8(data[2]) % 8)
			switch data[0] % 5 {
			case 0: // push
				if _, ok := m.items[page]; ok {
					if !pushPanics(&h, page, key) {
						t.Fatalf("step %d: Push(%d) of a page on the heap did not panic", step, page)
					}
					break
				}
				h.Push(page, key)
				m.seq++
				m.items[page] = heapItem{base: page, key: key, seq: m.seq}
			case 1: // update
				it, ok := m.items[page]
				if got := h.Update(page, key); got != ok {
					t.Fatalf("step %d: Update(%d) = %v, model %v", step, page, got, ok)
				}
				if ok {
					it.key = key
					m.items[page] = it
				}
			case 2: // remove
				_, ok := m.items[page]
				if got := h.Remove(page); got != ok {
					t.Fatalf("step %d: Remove(%d) = %v, model %v", step, page, got, ok)
				}
				delete(m.items, page)
			case 3: // pop-min
				want, ok := m.min()
				got, gotOK := h.PopMin()
				if gotOK != ok || got != want.base {
					t.Fatalf("step %d: PopMin = (%d, %v), model (%d, %v)", step, got, gotOK, want.base, ok)
				}
				delete(m.items, want.base)
			case 4: // shift
				delta := float64(int8(data[2]) % 4)
				h.Shift(delta)
				for p, it := range m.items {
					it.key += delta
					m.items[p] = it
				}
			}
			checkHeap(t, step, &h, &m, pages)
		}
	})
}

func pushPanics(h *Heap, page sim.PageID, key float64) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	h.Push(page, key)
	return false
}

// checkHeap compares every observable of h with the model.
func checkHeap(t *testing.T, step int, h *Heap, m *heapModel, pages sim.PageID) {
	t.Helper()
	if h.Len() != len(m.items) {
		t.Fatalf("step %d: Len = %d, model %d", step, h.Len(), len(m.items))
	}
	want, ok := m.min()
	if base, key, gotOK := h.Min(); gotOK != ok || base != want.base || key != want.key {
		t.Fatalf("step %d: Min = (%d, %v, %v), model (%d, %v, %v)", step, base, key, gotOK, want.base, want.key, ok)
	}
	var order []sim.PageID
	for p := range pages {
		it, ok := m.items[p]
		key, gotOK := h.Key(p)
		if gotOK != ok || key != it.key {
			t.Fatalf("step %d: page %d: Key = (%v, %v), model (%v, %v)", step, p, key, gotOK, it.key, ok)
		}
		if ok {
			order = append(order, p)
		}
	}
	var got []sim.PageID
	h.Range(func(p sim.PageID) bool { got = append(got, p); return true })
	if !slices.Equal(got, order) {
		t.Fatalf("step %d: Range = %v, want %v", step, got, order)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}
