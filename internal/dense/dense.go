// Package dense provides the flat, page-indexed data structures the
// simulator's hot path runs on. Workload layouts assign page IDs
// densely from 0..TotalPages (see workload.Build), so every map keyed
// by sim.PageID in the per-touch path can be a slice indexed by page
// instead: Index (policy heap positions and slice offsets) and List
// (the FIFO/LRU queues). That removes hashing, bucket chasing and
// per-entry allocation from the inner simulation loop. PSPT keeps its own
// page-indexed record table (pspt.entry): its records are wider than a
// word.
//
// The package also provides Scratch, a per-goroutine slab recycler that
// lets RunMany sweeps reuse the big per-run slices (TLB state, policy
// lists, stats buffers) across consecutive Simulate calls instead of
// reallocating them for every config.
//
// All structures here are bookkeeping-identical to the maps they
// replace: presence is encoded explicitly (a zero sentinel), so the
// swap sites preserve bit-identical simulation results.
package dense

import "cmcp/internal/sim"

// Scratch is a per-goroutine slab recycler. Get methods hand out zeroed
// slices drawn from free lists; Recycle zeroes every slice handed out
// since the last Recycle (over its full capacity) and returns it to the
// free lists. A nil *Scratch is valid and degrades to plain make, so
// single-run callers need no special casing.
//
// Scratch is not safe for concurrent use: each RunMany worker owns one.
type Scratch struct {
	u8  slabs[uint8]
	i32 slabs[int32]
	u64 slabs[uint64]
	cyc slabs[sim.Cycles]
}

// U8 returns a zeroed []uint8 of length n.
func (s *Scratch) U8(n int) []uint8 {
	if s == nil {
		return make([]uint8, n)
	}
	return s.u8.get(n)
}

// I32 returns a zeroed []int32 of length n.
func (s *Scratch) I32(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	return s.i32.get(n)
}

// U64 returns a zeroed []uint64 of length n.
func (s *Scratch) U64(n int) []uint64 {
	if s == nil {
		return make([]uint64, n)
	}
	return s.u64.get(n)
}

// Cycles returns a zeroed []sim.Cycles of length n.
func (s *Scratch) Cycles(n int) []sim.Cycles {
	if s == nil {
		return make([]sim.Cycles, n)
	}
	return s.cyc.get(n)
}

// Recycle reclaims every slice handed out since the last Recycle. The
// caller promises that no such slice is referenced anymore (in RunMany,
// the previous run's Result holds only independently allocated data).
// Slices that outgrew their capacity via append migrate to fresh
// backing arrays automatically; the originals are still reclaimed here.
func (s *Scratch) Recycle() {
	if s == nil {
		return
	}
	s.u8.recycle()
	s.i32.recycle()
	s.u64.recycle()
	s.cyc.recycle()
}

// slabs is one element type's free list plus the outstanding slices.
type slabs[T any] struct {
	free [][]T
	used [][]T
}

// get returns a zeroed slice of length n, reusing a free slab whose
// capacity fits when one exists. Free slabs were zeroed over their full
// capacity at recycle time, and fresh allocations are zeroed by make,
// so the result is always all-zero.
func (p *slabs[T]) get(n int) []T {
	for i, sl := range p.free {
		if cap(sl) >= n {
			last := len(p.free) - 1
			p.free[i] = p.free[last]
			p.free[last] = nil
			p.free = p.free[:last]
			sl = sl[:n]
			p.used = append(p.used, sl)
			return sl
		}
	}
	// Round capacity up so runs with slightly different footprints can
	// still share slabs.
	sl := make([]T, n, ceilPow2(n))
	p.used = append(p.used, sl)
	return sl
}

// recycle zeroes every outstanding slab over its full capacity and
// moves it to the free list.
func (p *slabs[T]) recycle() {
	for i, sl := range p.used {
		full := sl[:cap(sl)]
		clear(full)
		p.free = append(p.free, full[:0])
		p.used[i] = nil
	}
	p.used = p.used[:0]
}

// ceilPow2 rounds n up to the next power of two (minimum 8).
func ceilPow2(n int) int {
	c := 8
	for c < n {
		c <<= 1
	}
	return c
}
