// Package mem models the co-processor's small on-board device memory
// as a frame allocator (owner and free list) and, for multi-tenant
// runs, the frame-ownership coremap. Whether an evicted page must be
// written back to the host is not recorded here: the kernel reads the
// dirty bits of the page-table entries it unmaps, as on real hardware.
// Page contents are modelled only by the vm package's Config.Verify
// checker.
package mem

import (
	"errors"
	"fmt"

	"cmcp/internal/sim"
)

// ErrOutOfFrames is returned by Alloc when device memory is exhausted
// and the caller must evict a victim first.
var ErrOutOfFrames = errors.New("mem: out of device frames")

// Device models the co-processor's on-board RAM as an array of 4 kB
// frames, each with its owner page, and a free list. It is not safe for
// concurrent use; the discrete-event engine serializes access.
type Device struct {
	owner []sim.PageID // owner page by frame, or -1 when free
	free  []sim.FrameID
}

// NewDevice creates a device memory with n 4 kB frames.
func NewDevice(n int) *Device {
	d := &Device{owner: make([]sim.PageID, n), free: make([]sim.FrameID, 0, n)}
	for i := n - 1; i >= 0; i-- {
		d.owner[i] = -1
		d.free = append(d.free, sim.FrameID(i))
	}
	return d
}

// NumFrames returns the device capacity in frames.
func (d *Device) NumFrames() int { return len(d.owner) }

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
	if o := d.owner[f]; o != -1 {
		return sim.NoFrame, fmt.Errorf("mem: free-list frame %d still owned by page %d", f, o)
	}
	d.owner[f] = vpn
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
	n := len(d.owner)
	for base := 0; base+span <= n; base += span {
		ok := true
		for i := 0; i < span; i++ {
			if d.owner[base+i] != -1 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for i := 0; i < span; i++ {
			d.owner[base+i] = vpn + sim.PageID(i)
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
	if d.owner[f] == -1 {
		panic(fmt.Sprintf("mem: double free of frame %d", f))
	}
	d.owner[f] = -1
	d.free = append(d.free, f)
}

// Owner returns the page occupying frame f, or -1 if free.
func (d *Device) Owner(f sim.FrameID) sim.PageID { return d.owner[f] }
