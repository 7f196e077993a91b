package machine

import (
	"slices"
	"testing"

	"cmcp/internal/sim"
)

// maxFuzzHeap is the largest heap FuzzEventQueue builds: enough for a
// 56-core run plus the scanner, and for three levels of 4-child groups
// with a partial last group.
const maxFuzzHeap = 70

// FuzzEventQueue checks the scheduler heap against a sorted-slice
// reference. The first byte sets the initial size (1–70, clocks drawn
// from the input so ties on clock are common); every further byte is
// one operation, its top two bits the kind and its low six an
// argument:
//
//	00 push a new core at the current minimum clock + arg
//	01, 10 advance the root's clock by arg in place, then fixTop
//	11 pop
//
// Each advance must leave the reference minimum at the root, each pop
// must return it, and draining the heap at the end must reproduce the
// reference order exactly.
//
// The seed corpus lives in testdata/fuzz/FuzzEventQueue.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var q eventQueue
		var ref []eventKey // ascending
		id := 0
		push := func(clock sim.Cycles) {
			e := makeEvent(clock, sim.CoreID(id))
			id++
			q.push(e)
			i, _ := slices.BinarySearch(ref, e)
			ref = slices.Insert(ref, i, e)
		}
		for i := 0; i < 1+int(data[0])%maxFuzzHeap; i++ {
			push(sim.Cycles(data[i%len(data)] & 63))
		}
		for step, b := range data[1:] {
			arg := sim.Cycles(b & 63)
			switch b >> 6 {
			case 0:
				if len(ref) == maxFuzzHeap {
					continue
				}
				var now sim.Cycles
				if len(ref) > 0 {
					now = ref[0].clock()
				}
				push(now + arg)
			case 1, 2:
				if len(ref) == 0 {
					continue
				}
				root := q.ev[0]
				e := makeEvent(root.clock()+arg, root.id())
				q.ev[0] = e
				q.fixTop()
				ref = ref[1:]
				i, _ := slices.BinarySearch(ref, e)
				ref = slices.Insert(ref, i, e)
				if q.ev[0] != ref[0] {
					t.Fatalf("step %d: after advancing core %d by %d the root is %#x, want %#x (size %d)",
						step, root.id(), arg, uint64(q.ev[0]), uint64(ref[0]), len(ref))
				}
			case 3:
				if len(ref) == 0 {
					continue
				}
				if got := q.pop(); got != ref[0] {
					t.Fatalf("step %d: pop = %#x, want %#x (size %d)", step, uint64(got), uint64(ref[0]), len(ref))
				}
				ref = ref[1:]
			}
		}
		for len(ref) > 0 {
			if got := q.pop(); got != ref[0] {
				t.Fatalf("drain: pop = %#x, want %#x (%d left)", uint64(got), uint64(ref[0]), len(ref))
			}
			ref = ref[1:]
		}
		if len(q.ev) != 0 {
			t.Fatalf("heap holds %d keys after the reference drained", len(q.ev))
		}
	})
}
