package policy

import (
	"cmcp/internal/dense"
	"cmcp/internal/sim"
)

// Random evicts a uniformly random resident page. It is a sanity
// baseline: any policy worth running should beat it, and like FIFO it
// needs no usage statistics.
type Random struct {
	rng   *sim.RNG
	pages []sim.PageID
	index dense.Index // base -> position in pages
}

// NewRandom returns a random policy seeded deterministically.
func NewRandom(seed uint64) *Random { return NewRandomIn(seed, nil, 0) }

// NewRandomIn is NewRandom with the position index pre-sized for page
// bases in [0, hint). The second argument is ignored.
func NewRandomIn(seed uint64, _ *dense.Scratch, hint int) *Random {
	return &Random{rng: sim.NewRNG(seed), index: dense.NewIndex(hint)}
}

// Name implements Policy.
func (r *Random) Name() string { return "Random" }

// PTESetup implements Policy.
func (r *Random) PTESetup(base sim.PageID) {
	if r.index.Has(base) {
		return
	}
	r.index.Set(base, int32(len(r.pages)))
	r.pages = append(r.pages, base)
}

// Victim implements Policy: uniform choice, O(1) removal by swapping
// with the last slot.
func (r *Random) Victim() (sim.PageID, bool) {
	if len(r.pages) == 0 {
		return 0, false
	}
	i := r.rng.Intn(len(r.pages))
	base := r.pages[i]
	r.removeAt(base, i)
	return base, true
}

// Remove implements Policy.
func (r *Random) Remove(base sim.PageID) {
	if i := r.index.Get(base); i >= 0 {
		r.removeAt(base, int(i))
	}
}

func (r *Random) removeAt(base sim.PageID, i int) {
	last := len(r.pages) - 1
	moved := r.pages[last]
	r.pages[i] = moved
	r.index.Set(moved, int32(i))
	r.pages = r.pages[:last]
	r.index.Delete(base)
}

// Tick implements Policy (no periodic work).
func (r *Random) Tick(sim.Cycles) {}

// NextTick implements Deadline: Tick has no work, ever.
func (*Random) NextTick() sim.Cycles { return Never }

// Resident implements Policy.
func (r *Random) Resident() int { return len(r.pages) }
