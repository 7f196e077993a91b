// Package tlb models the per-core data TLBs of the simulated many-core
// and the remote-shootdown machinery. Each core has a small L1 TLB per
// page-size class (4 kB / 64 kB / 2 MB) and a unified L2; replacement
// is FIFO within a class, as in the simple in-order KNC cores. The Phi's
// 64 kB extension caches a whole 16-page group as a single entry, which
// is exactly the TLB-reach benefit the paper measures.
//
// Shootdowns: on x86 a core can only invalidate its own TLB, so
// remapping a page requires an IPI loop over every core that may cache
// the translation. With regular page tables that set is unknown and the
// loop covers all cores; with PSPT it is exactly the mapping cores.
// Package vm charges the corresponding costs from the sim.CostModel.
package tlb

import (
	"fmt"
	"math/bits"

	"cmcp/internal/sim"
)

// HitLevel classifies the outcome of a TLB lookup.
type HitLevel uint8

const (
	// Miss means neither level holds the translation; a page walk runs.
	Miss HitLevel = iota
	// HitL1 is a first-level hit (free).
	HitL1
	// HitL2 is a second-level hit (small penalty, entry promoted).
	HitL2
)

// Config sets the per-core TLB geometry. The defaults follow Knights
// Corner: 64×4 kB and 8×2 MB L1 entries, 32 entries for the
// experimental 64 kB class, and a 64-entry unified L2.
type Config struct {
	L1Entries4k  int
	L1Entries64k int
	L1Entries2M  int
	L2Entries    int
}

// DefaultConfig returns the KNC-like geometry.
func DefaultConfig() Config {
	return Config{L1Entries4k: 64, L1Entries64k: 32, L1Entries2M: 8, L2Entries: 64}
}

// The TLB's presence state is one byte per page: the byte at page b
// describes the entries whose size-aligned base is b, in every set.
//
//	bits 0–2  an L1 entry of size class 4 kB / 64 kB / 2 MB (bit = class)
//	bits 3–4  the L2 entry: its size class + 1, 0 = absent
//	bits 5–6  reserved, zero
//	bit  7    transient mark (compaction and the invariant check), zero at rest
//
// A lookup therefore reads at most the bytes of vpn's three aligned
// bases from one table, and a broadcast shootdown that finds all three
// zero — what nearly every remote target of a regular-table eviction
// finds — returns without touching any set.
const (
	l2Shift  = 3
	l2Mask   = 3 << l2Shift
	markBit  = 0x80
	reserved = 0xe0 // bits 5–7: zero whenever no call is in progress
)

// fifoSet is a fixed-capacity, fully associative set with FIFO
// replacement and lazy queue cleanup (invalidated entries leave stale
// queue slots that are skipped at eviction time). Membership lives in
// the owning TLB's state table, under mask.
type fifoSet struct {
	cap   int
	n     int     // live entries
	mask  uint8   // this set's bits in the state byte
	queue []int32 // FIFO order of bases, with stale slots
	head  int
}

// queueSlots is the most slots a set's queue ever holds. compact
// rewrites the queue as soon as it passes 4*capacity+64 slots, so an
// insert finds at most that many and its append makes one more.
func queueSlots(capacity int) int {
	if capacity <= 0 {
		return 0 // insert returns before queueing anything
	}
	return 4*capacity + 65
}

// growCap rounds n up to the next power of two (minimum 8).
func growCap(n int) int {
	c := 8
	for c < n {
		c <<= 1
	}
	return c
}

// TLB is one core's data TLB: three L1 size classes plus a unified L2.
// It is not safe for concurrent use; the event engine serializes cores.
// The zero value is unusable; construct with New. TLB is a plain value
// so a machine's per-core TLBs pack into one slice.
type TLB struct {
	state []uint8    // page -> entry bits (layout above)
	l1    [3]fifoSet // indexed by sim.PageSize
	l2    fifoSet
}

// New creates a TLB with the given geometry whose state table is
// pre-sized for page IDs in [0, pages) and grows past that range on
// demand. The four set queues are carved from one slab at their
// queueSlots bound, so no insert ever grows one.
func New(cfg Config, pages int) TLB {
	caps := [4]int{cfg.L1Entries4k, cfg.L1Entries64k, cfg.L1Entries2M, cfg.L2Entries}
	masks := [4]uint8{1 << sim.Size4k, 1 << sim.Size64k, 1 << sim.Size2M, l2Mask}
	n := 0
	for _, c := range caps {
		n += queueSlots(c)
	}
	slab := make([]int32, n)
	var sets [4]fifoSet
	for i, c := range caps {
		q := queueSlots(c)
		sets[i] = fifoSet{cap: c, mask: masks[i], queue: slab[:0:q]}
		slab = slab[q:]
	}
	return TLB{
		state: make([]uint8, pages),
		l1:    [3]fifoSet{sim.Size4k: sets[0], sim.Size64k: sets[1], sim.Size2M: sets[2]},
		l2:    sets[3],
	}
}

var sizes = [3]sim.PageSize{sim.Size4k, sim.Size64k, sim.Size2M}

// at is base's state byte; pages past the table hold nothing.
func (t *TLB) at(base sim.PageID) uint8 {
	if base < sim.PageID(len(t.state)) {
		return t.state[base]
	}
	return 0
}

// cover decodes which cached entries translate vpn: bit s of l1 (l2)
// is set when an L1 (L2) entry of size class s covers vpn.
func (t *TLB) cover(vpn sim.PageID) (l1, l2 uint8) {
	v0, v1, v2 := t.at(vpn), t.at(sim.Size64k.Align(vpn)), t.at(sim.Size2M.Align(vpn))
	l1 = v0&(1<<sim.Size4k) | v1&(1<<sim.Size64k) | v2&(1<<sim.Size2M)
	l2 = b2u(v0&l2Mask == (uint8(sim.Size4k)+1)<<l2Shift) |
		b2u(v1&l2Mask == (uint8(sim.Size64k)+1)<<l2Shift)<<1 |
		b2u(v2&l2Mask == (uint8(sim.Size2M)+1)<<l2Shift)<<2
	return l1, l2
}

// b2u is 1 for true and 0 for false; it compiles to a SETcc.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Lookup probes the TLB for vpn. Hardware probes each size class with
// the correspondingly aligned tag. An L2 hit promotes the entry to the
// proper L1 class.
func (t *TLB) Lookup(vpn sim.PageID) HitLevel {
	if t.at(vpn)&(1<<sim.Size4k) != 0 {
		return HitL1 // the common case: one byte read
	}
	l1, l2 := t.cover(vpn)
	if l1 != 0 {
		return HitL1
	}
	if l2 != 0 {
		size := sim.PageSize(bits.TrailingZeros8(l2))
		base := size.Align(vpn)
		t.drop(&t.l2, base)
		t.installL1(base, size)
		return HitL2
	}
	return Miss
}

// Insert caches the translation for the mapping of the given size
// covering vpn, as the hardware does after a successful page walk.
func (t *TLB) Insert(vpn sim.PageID, size sim.PageSize) {
	t.installL1(size.Align(vpn), size)
}

func (t *TLB) installL1(base sim.PageID, size sim.PageSize) {
	if vb, ok := t.insert(&t.l1[size], base, 1<<size); ok {
		// L1 victim is demoted into the unified L2.
		t.insert(&t.l2, vb, (uint8(size)+1)<<l2Shift)
	}
}

// insert adds base to s with field value v (already shifted under
// s.mask) and returns the base evicted to make room, if any.
func (t *TLB) insert(s *fifoSet, base sim.PageID, v uint8) (sim.PageID, bool) {
	if s.cap <= 0 || t.at(base)&s.mask != 0 {
		return 0, false // refresh: FIFO ignores re-reference
	}
	var evicted sim.PageID
	var hasEvicted bool
	for s.n >= s.cap {
		// Pop queue head; skip slots whose entry was invalidated.
		vb := sim.PageID(s.queue[s.head])
		s.head++
		if t.state[vb]&s.mask != 0 {
			t.state[vb] &^= s.mask
			s.n--
			evicted, hasEvicted = vb, true
		}
	}
	if base >= sim.PageID(len(t.state)) {
		ns := make([]uint8, growCap(int(base)+1))
		copy(ns, t.state)
		t.state = ns
	}
	t.state[base] |= v
	s.n++
	s.queue = append(s.queue, int32(base))
	// Compaction timing is semantically visible: rewriting the queue
	// dedupes the stale slots that give a re-inserted page its
	// effective FIFO position.
	t.compact(s)
	return evicted, hasEvicted
}

// drop removes the entry at base, which s must hold.
func (t *TLB) drop(s *fifoSet, base sim.PageID) {
	t.state[base] &^= s.mask
	s.n--
}

// compact reclaims s's queue space when stale slots dominate.
func (t *TLB) compact(s *fifoSet) {
	// Invalidation-heavy traffic (shootdown storms, scan clears)
	// leaves stale slots in the un-consumed suffix that only eviction
	// pops would reclaim; a set running below capacity never pops, so
	// the queue would otherwise grow linearly with total inserts. Once
	// it outgrows a small multiple of capacity, rewrite it with live
	// entries only.
	if len(s.queue) > 4*s.cap+64 {
		t.compactLive(s)
		return
	}
	if s.head > 64 && s.head*2 > len(s.queue) {
		s.queue = append(s.queue[:0], s.queue[s.head:]...)
		s.head = 0
	}
}

// compactLive rewrites s's queue keeping only each live base's earliest
// slot, in order. That slot alone determines when the entry reaches the
// FIFO head, so the effective eviction order of everything currently
// cached is preserved exactly.
func (t *TLB) compactLive(s *fifoSet) {
	w := 0
	for _, qb := range s.queue[s.head:] {
		if v := t.state[qb]; v&s.mask != 0 && v&markBit == 0 {
			t.state[qb] = v | markBit
			s.queue[w] = qb
			w++
		}
	}
	s.queue = s.queue[:w]
	s.head = 0
	for _, qb := range s.queue {
		t.state[qb] &^= markBit
	}
}

// Invalidate drops any cached translation covering vpn (the INVLPG
// operation). It reports whether an entry was actually present, which
// determines whether the invalidation had any effect.
func (t *TLB) Invalidate(vpn sim.PageID) bool {
	l1, l2 := t.cover(vpn)
	if l1|l2 == 0 {
		return false
	}
	for _, s := range sizes {
		if l1>>s&1 != 0 {
			t.drop(&t.l1[s], s.Align(vpn))
		}
		if l2>>s&1 != 0 {
			t.drop(&t.l2, s.Align(vpn))
		}
	}
	return true
}

// Entries returns the current number of cached translations across
// both levels (diagnostics).
func (t *TLB) Entries() int {
	n := t.l2.n
	for _, s := range sizes {
		n += t.l1[s].n
	}
	return n
}

// ForEachEntry visits every cached translation; level is 1 or 2. The
// invariant auditor cross-checks each against the page tables.
func (t *TLB) ForEachEntry(fn func(base sim.PageID, size sim.PageSize, level int)) {
	for _, s := range sizes {
		for b, v := range t.state {
			if v&t.l1[s].mask != 0 {
				fn(sim.PageID(b), s, 1)
			}
		}
	}
	for b, v := range t.state {
		if f := v & l2Mask; f != 0 {
			fn(sim.PageID(b), sim.PageSize(f>>l2Shift-1), 2)
		}
	}
}

// CheckInvariants verifies the state table and all four sets: no
// reserved or mark bit is set at rest, every set bit belongs to a live
// entry that still owns an un-consumed queue slot (otherwise it could
// never be evicted), and each set's live count matches the table and
// its capacity.
func (t *TLB) CheckInvariants() error {
	for b, v := range t.state {
		if v&reserved != 0 {
			return fmt.Errorf("tlb: page %d state byte %#02x has reserved bits set", b, v)
		}
	}
	for _, s := range sizes {
		if err := t.checkSet(&t.l1[s], fmt.Sprintf("L1/%v", s)); err != nil {
			return err
		}
	}
	return t.checkSet(&t.l2, "L2")
}

func (t *TLB) checkSet(s *fifoSet, name string) error {
	if s.head > len(s.queue) {
		return fmt.Errorf("tlb %s: head %d past queue length %d", name, s.head, len(s.queue))
	}
	for _, qb := range s.queue[s.head:] {
		if v := t.state[qb]; v&s.mask != 0 {
			t.state[qb] = v | markBit
		}
	}
	live, stray := 0, -1
	for b, v := range t.state {
		if v&s.mask != 0 {
			live++
			if v&markBit == 0 && stray < 0 {
				stray = b
			}
		}
	}
	for _, qb := range s.queue[s.head:] {
		t.state[qb] &^= markBit
	}
	if stray >= 0 {
		return fmt.Errorf("tlb %s: page %d is cached but has no live queue slot", name, stray)
	}
	if live != s.n {
		return fmt.Errorf("tlb %s: n=%d but %d live state entries", name, s.n, live)
	}
	if s.cap >= 0 && s.n > s.cap {
		return fmt.Errorf("tlb %s: %d live entries exceed capacity %d", name, s.n, s.cap)
	}
	return nil
}
