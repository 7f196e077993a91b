package vm

import (
	"fmt"

	"cmcp/internal/sim"
)

// signature is a compact stand-in for a page's 4 kB of content: every
// simulated store mixes into it, so two copies of a page agree only if
// they saw the same stores in the same order (with overwhelming
// probability), which catches a lost or misdirected transfer exactly
// like full content comparison would.
type signature uint64

// mix folds store number seq by core into the signature.
func (s signature) mix(core sim.CoreID, seq uint64) signature {
	x := uint64(s) ^ (uint64(core)+1)*0x9e3779b97f4a7c15 ^ seq*0xbf58476d1ce4e5b9
	x ^= x >> 29
	x *= 0x94d049bb133111eb
	x ^= x >> 32
	return signature(x)
}

// Checker is the Config.Verify content oracle. It keeps three copies
// of every page's content and cross-checks them:
//
//   - want, what the program stored to each page, every store in order;
//   - frames, what each device frame holds: a store lands on the frame
//     the storing core's translation names;
//   - host, the backing store: only write-backs change it.
//
// At page-in the host copy must equal want, and is then installed in
// the frames. At eviction every member frame must equal want, and its
// content reaches the host only when the unmapped PTEs carried the
// dirty bit. A lost dirty bit, a skipped write-back, a misdirected
// store or a misplaced page-in therefore fails the run with
// ErrCorruption. Without Verify the Manager holds no Checker and the
// paging path models no content at all.
type Checker struct {
	seq    uint64
	frames []signature
	host   map[sim.PageID]signature
	want   map[sim.PageID]signature
}

func newChecker(frames int) *Checker {
	return &Checker{
		frames: make([]signature, frames),
		host:   make(map[sim.PageID]signature),
		want:   make(map[sim.PageID]signature),
	}
}

// SetHost overwrites the backing-store content of vpn, as a lost or
// misdirected transfer would. Tests use it to prove that the next
// page-in of vpn fails with ErrCorruption.
func (c *Checker) SetHost(vpn sim.PageID, content uint64) {
	c.host[vpn] = signature(content)
}

// store records a store by core to vpn, resolving the frame through
// core's translation.
func (c *Checker) store(as addressSpace, core sim.CoreID, vpn sim.PageID) error {
	pte, size, ok := as.Lookup(core, vpn)
	if !ok {
		return fmt.Errorf("%w: core %d stored to page %d it does not map", ErrCorruption, core, vpn)
	}
	f := sim.FrameID(pte.PFN()) // 64 kB member PTEs carry the member frame
	if size == sim.Size2M {
		f += sim.FrameID(vpn - sim.Size2M.Align(vpn))
	}
	c.seq++
	c.want[vpn] = c.want[vpn].mix(core, c.seq)
	c.frames[f] = c.frames[f].mix(core, c.seq)
	return nil
}

// pageIn checks the host copy of the span pages at base against what
// the program stored and installs it in the frames from frame on.
func (c *Checker) pageIn(base sim.PageID, frame sim.FrameID, span int) error {
	for i := 0; i < span; i++ {
		v := base + sim.PageID(i)
		got := c.host[v]
		if want := c.want[v]; got != want {
			return fmt.Errorf("%w: page %d read back from the host as %x, want %x", ErrCorruption, v, got, want)
		}
		c.frames[frame+sim.FrameID(i)] = got
	}
	return nil
}

// evict checks the frames of the evicted span pages at base against
// what the program stored and, when the unmapped PTEs were dirty,
// writes them back to the host.
func (c *Checker) evict(base sim.PageID, pfn int64, span int, dirty bool) error {
	for i := 0; i < span; i++ {
		v, f := base+sim.PageID(i), pfn+int64(i)
		if got, want := c.frames[f], c.want[v]; got != want {
			return fmt.Errorf("%w: frame %d of page %d holds %x at eviction, want %x", ErrCorruption, f, v, got, want)
		}
		if dirty {
			c.host[v] = c.frames[f]
		}
	}
	return nil
}
