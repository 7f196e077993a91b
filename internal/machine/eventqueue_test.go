package machine

import (
	"slices"
	"testing"

	"cmcp/internal/sim"
)

// maxFuzzHeap is the most live keys FuzzEventQueue schedules: enough
// for a 56-core run plus the scanner, and for a tree of 128 leaves
// with a partly used last level.
const maxFuzzHeap = 70

// FuzzEventQueue checks the scheduler's winner tree against a
// sorted-slice reference. The first byte sets the initial number of
// scheduled keys (1–70, clocks drawn from the input so ties on clock
// are common); every further byte is one operation, its top two bits
// the kind and its low six an argument:
//
//	00 schedule a free leaf at the current minimum clock + arg
//	01, 10 advance the minimum's clock by arg and reschedule its leaf
//	11 retire the minimum
//
// The tree has a leaf for every key the input can schedule at once,
// so its size, and with it the padding in the last level, varies with
// the input. Each advance must leave the reference minimum at the
// root, each retirement must take it, and retiring everything at the
// end must reproduce the reference order exactly. A second pass over
// the same ops after a reset checks that reused storage starts clean.
//
// The seed corpus lives in testdata/fuzz/FuzzEventQueue.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		initial := 1 + int(data[0])%maxFuzzHeap
		leaves := initial
		for _, b := range data[1:] {
			if b>>6 == 0 {
				leaves++
			}
		}
		leaves = min(leaves, maxFuzzHeap)
		var q eventQueue
		for pass := 0; pass < 2; pass++ {
			q.reset(leaves)
			fuzzEventQueuePass(t, &q, data, initial, leaves)
		}
	})
}

func fuzzEventQueuePass(t *testing.T, q *eventQueue, data []byte, initial, leaves int) {
	var ref []eventKey // ascending
	schedule := func(clock sim.Cycles) {
		leaf := slices.Index(q.leaves(), noKey)
		e := makeEvent(clock, sim.CoreID(leaf))
		q.set(leaf, e)
		i, _ := slices.BinarySearch(ref, e)
		ref = slices.Insert(ref, i, e)
	}
	retire := func(step int) {
		got := q.min()
		if got != ref[0] {
			t.Fatalf("step %d: min = %#x, want %#x (%d scheduled)", step, uint64(got), uint64(ref[0]), len(ref))
		}
		q.set(int(got.id()), noKey)
		ref = ref[1:]
	}
	for i := 0; i < initial; i++ {
		schedule(sim.Cycles(data[i%len(data)] & 63))
	}
	for step, b := range data[1:] {
		arg := sim.Cycles(b & 63)
		switch b >> 6 {
		case 0:
			if len(ref) == leaves {
				continue
			}
			var now sim.Cycles
			if len(ref) > 0 {
				now = ref[0].clock()
			}
			schedule(now + arg)
		case 1, 2:
			if len(ref) == 0 {
				continue
			}
			root := q.min()
			e := makeEvent(root.clock()+arg, root.id())
			q.set(int(root.id()), e)
			ref = ref[1:]
			i, _ := slices.BinarySearch(ref, e)
			ref = slices.Insert(ref, i, e)
			if q.min() != ref[0] {
				t.Fatalf("step %d: after advancing core %d by %d the root is %#x, want %#x (%d scheduled)",
					step, root.id(), arg, uint64(q.min()), uint64(ref[0]), len(ref))
			}
		case 3:
			if len(ref) == 0 {
				continue
			}
			retire(step)
		}
	}
	for len(ref) > 0 {
		retire(-1)
	}
	if q.min() != noKey {
		t.Fatalf("root is %#x after the reference drained", uint64(q.min()))
	}
}

// BenchmarkEventQueue times one scheduler update at the SCALE machine's
// size, 56 cores plus the scanner: take the earliest event and
// reschedule its entity a pseudo-random 1–1024 cycles later.
func BenchmarkEventQueue(b *testing.B) {
	const n = 57
	var q eventQueue
	q.reset(n)
	for i := 0; i < n; i++ {
		q.set(i, makeEvent(sim.Cycles(i), sim.CoreID(i)))
	}
	x := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top := q.min()
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		q.set(int(top.id()), makeEvent(top.clock()+1+sim.Cycles(x&1023), top.id()))
	}
}
