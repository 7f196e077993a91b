package tlb

import "cmcp/internal/sim"

// Journal records undo information for speculative TLB mutations. The
// parallel engine's probe phase runs real Lookup/Insert calls against a
// core's TLB before it is known whether the touches they belong to will
// commit; every state-table byte and queue-metadata change is logged so
// that Rollback can restore the TLB to its last committed state when a
// cross-core invalidation truncates the speculation.
//
// One journal serves one core's TLB (attach with TLB.SetJournal). State
// ops record whole state bytes, so restoring them in reverse order is
// exact: every write to the table inside a journaled window is logged,
// whichever set's bits it touched. Ops below the floor are committed and can never be
// rolled back; Release raises the floor as the engine commits touches.
// Queue compaction keeps firing at its usual trigger points while the
// journal is attached (its timing is semantically visible); a full
// pre-compaction queue snapshot is logged so it can be undone.
// Marks are virtual positions, monotone over the journal's lifetime:
// they stay valid across the storage reclaim that happens when every op
// is released, so a caller may hold a mark across commit boundaries
// (the engine's partially committed bursts do).
type Journal struct {
	t       *TLB
	ops     []journalOp
	floor   int // ops[:floor] are committed
	base    int // virtual position of ops[0]
	enabled bool
}

// journalOp is one undo record: a single state-table byte (state op),
// a snapshot of one set's count/queue metadata (meta op, logged once at
// the start of each mutating call), or a full queue snapshot (queue op,
// logged before a compaction rewrites the layout — compaction timing is
// semantically visible, because rewriting dedupes the stale slots that
// determine a re-inserted page's effective FIFO position, so it must
// run at exactly the serial trigger points and be undoable).
type journalOp struct {
	set  *fifoSet   // meta and queue ops
	base sim.PageID // state op: page whose byte changed
	old  uint8      // state op: previous byte value
	meta bool
	n    int
	head int
	qlen int
	snap []int32 // queue op: full pre-compaction queue content
}

// Enable turns on logging (probe phase).
func (j *Journal) Enable() { j.enabled = true }

// Disable turns off logging (sweep phase). Unreleased ops remain
// rollbackable.
func (j *Journal) Disable() { j.enabled = false }

// Mark returns the current journal position; ops at or past the mark
// are the ones logged after this call.
func (j *Journal) Mark() int { return j.base + len(j.ops) }

// Unreleased reports how many ops are still rollbackable.
func (j *Journal) Unreleased() int { return len(j.ops) - j.floor }

// Release commits every op below mark: they can no longer be undone.
// Marks may be released out of order; the floor only rises. Storage is
// reclaimed once everything is released.
func (j *Journal) Release(mark int) {
	rel := mark - j.base
	if rel > len(j.ops) {
		rel = len(j.ops)
	}
	if rel > j.floor {
		j.floor = rel
	}
	if j.floor == len(j.ops) && j.floor > 0 {
		j.base += j.floor
		j.ops = j.ops[:0]
		j.floor = 0
	}
}

// Rollback undoes every unreleased op in reverse order, restoring the
// attached TLB to its state as of the floor.
func (j *Journal) Rollback() {
	for i := len(j.ops) - 1; i >= j.floor; i-- {
		op := &j.ops[i]
		s := op.set
		switch {
		case op.snap != nil:
			s.queue = append(s.queue[:0], op.snap...)
			s.head = op.head
		case op.meta:
			s.n = op.n
			s.head = op.head
			s.queue = s.queue[:op.qlen]
		default:
			j.t.state[op.base] = op.old
		}
	}
	j.ops = j.ops[:j.floor]
}

// Touched reports whether any unreleased op recorded a state change for
// one of the given bases (the three size-aligned bases of one vpn; see
// TLB.InvalDisturbs).
func (j *Journal) Touched(b0, b1, b2 sim.PageID) bool {
	for i := j.floor; i < len(j.ops); i++ {
		op := &j.ops[i]
		if op.set == nil && (op.base == b0 || op.base == b1 || op.base == b2) {
			return true
		}
	}
	return false
}

func (j *Journal) logMeta(s *fifoSet) {
	j.ops = append(j.ops, journalOp{set: s, meta: true, n: s.n, head: s.head, qlen: len(s.queue)})
}

func (j *Journal) logQueue(s *fifoSet) {
	snap := make([]int32, len(s.queue))
	copy(snap, s.queue)
	j.ops = append(j.ops, journalOp{set: s, snap: snap, head: s.head})
}

func (j *Journal) logState(base sim.PageID, old uint8) {
	j.ops = append(j.ops, journalOp{base: base, old: old})
}
