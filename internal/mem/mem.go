// Package mem models the physical memory hierarchy of the simulated
// co-processor: the small on-board device memory (a frame allocator),
// the large host backing store reached over PCIe, and page-content
// signatures that let tests prove data integrity across swap-out /
// swap-in cycles without storing 4 kB of payload per page.
package mem

import (
	"errors"
	"fmt"

	"cmcp/internal/dense"
	"cmcp/internal/sim"
)

// ErrOutOfFrames is returned by Alloc when device memory is exhausted
// and the caller must evict a victim first.
var ErrOutOfFrames = errors.New("mem: out of device frames")

// Signature is a compact stand-in for a page's 4 kB of content. The
// simulator updates it on every simulated write and checks it when a
// page returns from the host, which catches lost or misdirected
// transfers exactly like full content comparison would.
type Signature uint64

// Mix folds a write event into the signature.
func (s Signature) Mix(core sim.CoreID, seq uint64) Signature {
	x := uint64(s) ^ (uint64(core)+1)*0x9e3779b97f4a7c15 ^ seq*0xbf58476d1ce4e5b9
	x ^= x >> 29
	x *= 0x94d049bb133111eb
	x ^= x >> 32
	return Signature(x)
}

// frame is the per-frame record of device memory.
type frame struct {
	vpn   sim.PageID // owner page, or -1 when free
	sig   Signature
	dirty bool
}

// Device models the co-processor's on-board RAM as an array of 4 kB
// frames with a free list. It is not safe for concurrent use; the
// discrete-event engine serializes access.
type Device struct {
	frames []frame
	free   []sim.FrameID
}

// NewDevice creates a device memory with n 4 kB frames.
func NewDevice(n int) *Device {
	d := &Device{frames: make([]frame, n), free: make([]sim.FrameID, 0, n)}
	for i := n - 1; i >= 0; i-- {
		d.frames[i].vpn = -1
		d.free = append(d.free, sim.FrameID(i))
	}
	return d
}

// NumFrames returns the device capacity in frames.
func (d *Device) NumFrames() int { return len(d.frames) }

// FreeFrames returns the number of currently unallocated frames.
func (d *Device) FreeFrames() int { return len(d.free) }

// Alloc takes a free frame and assigns it to vpn. It returns
// ErrOutOfFrames when the device is full.
func (d *Device) Alloc(vpn sim.PageID) (sim.FrameID, error) {
	if len(d.free) == 0 {
		return sim.NoFrame, ErrOutOfFrames
	}
	f := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	fr := &d.frames[f]
	if fr.vpn != -1 {
		return sim.NoFrame, fmt.Errorf("mem: free-list frame %d still owned by page %d", f, fr.vpn)
	}
	fr.vpn = vpn
	fr.dirty = false
	fr.sig = 0
	return f, nil
}

// AllocRange allocates span contiguous frames for a large mapping
// starting at vpn (64 kB and 2 MB mappings need physically contiguous,
// aligned frames on the Phi). It scans for a naturally aligned free run;
// if none exists it fails with ErrOutOfFrames even if enough scattered
// frames remain — the caller then evicts until a run opens up.
func (d *Device) AllocRange(vpn sim.PageID, span int) (sim.FrameID, error) {
	if span == 1 {
		return d.Alloc(vpn)
	}
	n := len(d.frames)
	for base := 0; base+span <= n; base += span {
		ok := true
		for i := 0; i < span; i++ {
			if d.frames[base+i].vpn != -1 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for i := 0; i < span; i++ {
			fr := &d.frames[base+i]
			fr.vpn = vpn + sim.PageID(i)
			fr.dirty = false
			fr.sig = 0
			d.removeFree(sim.FrameID(base + i))
		}
		return sim.FrameID(base), nil
	}
	return sim.NoFrame, ErrOutOfFrames
}

func (d *Device) removeFree(f sim.FrameID) {
	for i, v := range d.free {
		if v == f {
			d.free[i] = d.free[len(d.free)-1]
			d.free = d.free[:len(d.free)-1]
			return
		}
	}
}

// Free releases the frame back to the free list.
func (d *Device) Free(f sim.FrameID) {
	fr := &d.frames[f]
	if fr.vpn == -1 {
		panic(fmt.Sprintf("mem: double free of frame %d", f))
	}
	fr.vpn = -1
	fr.dirty = false
	d.free = append(d.free, f)
}

// Owner returns the page occupying frame f, or -1 if free.
func (d *Device) Owner(f sim.FrameID) sim.PageID { return d.frames[f].vpn }

// Write records a simulated store to frame f, updating its content
// signature and dirty bit.
func (d *Device) Write(f sim.FrameID, core sim.CoreID, seq uint64) {
	fr := &d.frames[f]
	fr.sig = fr.sig.Mix(core, seq)
	fr.dirty = true
}

// Dirty reports whether frame f has been written since it was loaded.
func (d *Device) Dirty(f sim.FrameID) bool { return d.frames[f].dirty }

// Signature returns the current content signature of frame f.
func (d *Device) Signature(f sim.FrameID) Signature { return d.frames[f].sig }

// SetSignature installs content into frame f (page-in from host) and
// clears the dirty bit.
func (d *Device) SetSignature(f sim.FrameID, s Signature) {
	d.frames[f].sig = s
	d.frames[f].dirty = false
}

// Host models the host machine's RAM acting as backing store for the
// computation area. Pages are identified by VPN; absent entries read as
// the zero signature (fresh anonymous memory). Signatures live in a
// page-indexed table with a presence bitmap beside it, so write-backs
// and page-ins never hash; both grow for VPNs past the sized range.
type Host struct {
	sigs    dense.Words // signature by VPN
	present dense.Words // bit vpn%64 of word vpn/64: written back at least once
	n       int         // pages written back at least once
	// InBytes and OutBytes track total transfer volume for stats.
	InBytes, OutBytes int64
}

// NewHost returns an empty backing store pre-sized for VPNs in
// [0, pages), drawing its slices from sc (both optional).
func NewHost(sc *dense.Scratch, pages int) *Host {
	return &Host{sigs: dense.NewWords(sc, pages), present: dense.NewWords(sc, (pages+63)/64)}
}

// PageOut stores sig as the content of vpn (device-to-host write-back).
func (h *Host) PageOut(vpn sim.PageID, sig Signature) {
	h.sigs.Set(vpn, uint64(sig))
	if w, bit := h.present.Get(vpn>>6), uint64(1)<<(vpn&63); w&bit == 0 {
		h.present.Set(vpn>>6, w|bit)
		h.n++
	}
	h.OutBytes += sim.PageSize4k
}

// PageIn fetches the content of vpn (host-to-device). A page never
// written before reads as zero-filled.
func (h *Host) PageIn(vpn sim.PageID) Signature {
	h.InBytes += sim.PageSize4k
	return Signature(h.sigs.Get(vpn))
}

// Peek returns the stored signature without accounting a transfer;
// tests use it to verify write-back contents.
func (h *Host) Peek(vpn sim.PageID) (Signature, bool) {
	if h.present.Get(vpn>>6)&(1<<(vpn&63)) == 0 {
		return 0, false
	}
	return Signature(h.sigs.Get(vpn)), true
}

// Len returns the number of pages ever written back.
func (h *Host) Len() int { return h.n }
