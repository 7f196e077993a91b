package dense

import "cmcp/internal/sim"

// Index is a page-indexed replacement for map[sim.PageID]int32-shaped
// indexes (heap positions, slice offsets, store handles). Values are
// stored as v+1 so the zero slice element means "absent"; a fresh
// table therefore starts out empty without an O(n) sentinel fill.
type Index struct {
	v []int32
}

// NewIndex returns an index pre-sized for pages in [0, hint).
func NewIndex(hint int) Index {
	return Index{v: make([]int32, hint)}
}

// Get returns the value stored for page, or -1 when absent.
func (x *Index) Get(page sim.PageID) int32 {
	if page < 0 || page >= sim.PageID(len(x.v)) {
		return -1
	}
	return x.v[page] - 1
}

// Has reports whether page has a stored value.
func (x *Index) Has(page sim.PageID) bool {
	return page >= 0 && page < sim.PageID(len(x.v)) && x.v[page] != 0
}

// Set stores v (which must be >= 0) for page, growing as needed.
func (x *Index) Set(page sim.PageID, v int32) {
	if page >= sim.PageID(len(x.v)) {
		x.grow(int(page) + 1)
	}
	x.v[page] = v + 1
}

// Delete removes page's value, reporting whether one was present.
func (x *Index) Delete(page sim.PageID) bool {
	if page < 0 || page >= sim.PageID(len(x.v)) || x.v[page] == 0 {
		return false
	}
	x.v[page] = 0
	return true
}

// Range calls fn for every present page in ascending page order until
// fn returns false. fn must not mutate the index.
func (x *Index) Range(fn func(page sim.PageID, v int32) bool) {
	for p, raw := range x.v {
		if raw != 0 && !fn(sim.PageID(p), raw-1) {
			return
		}
	}
}

// grow extends the table to n zeroed entries; append's capacity
// doubling keeps repeated growth amortized O(1).
func (x *Index) grow(n int) {
	x.v = append(x.v, make([]int32, n-len(x.v))...)
}
