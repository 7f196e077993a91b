package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"cmcp/internal/sim"
)

func TestDeviceAllocFree(t *testing.T) {
	d := NewDevice(4)
	if d.NumFrames() != 4 || d.FreeFrames() != 4 {
		t.Fatalf("fresh device: %d/%d", d.FreeFrames(), d.NumFrames())
	}
	seen := make(map[sim.FrameID]bool)
	for i := 0; i < 4; i++ {
		f, err := d.Alloc(sim.PageID(100 + i))
		if err != nil {
			t.Fatal(err)
		}
		if seen[f] {
			t.Fatalf("frame %d allocated twice", f)
		}
		seen[f] = true
		if d.Owner(f) != sim.PageID(100+i) {
			t.Errorf("owner mismatch")
		}
	}
	if _, err := d.Alloc(999); !errors.Is(err, ErrOutOfFrames) {
		t.Errorf("expected ErrOutOfFrames, got %v", err)
	}
	var f0 sim.FrameID
	for f := range seen {
		f0 = f
		break
	}
	d.Free(f0)
	if d.FreeFrames() != 1 || d.Owner(f0) != -1 {
		t.Error("free did not release frame")
	}
	f, err := d.Alloc(777)
	if err != nil || f != f0 {
		t.Errorf("realloc got %d, want %d", f, f0)
	}
}

func TestDeviceDoubleFreePanics(t *testing.T) {
	d := NewDevice(1)
	f, _ := d.Alloc(1)
	d.Free(f)
	defer func() {
		if recover() == nil {
			t.Error("double free must panic")
		}
	}()
	d.Free(f)
}

func TestDeviceDirtySignature(t *testing.T) {
	d := NewDevice(2)
	f, _ := d.Alloc(5)
	if d.Dirty(f) {
		t.Error("fresh frame must be clean")
	}
	s0 := d.Signature(f)
	d.Write(f, 3, 1)
	if !d.Dirty(f) {
		t.Error("write must set dirty")
	}
	if d.Signature(f) == s0 {
		t.Error("write must change signature")
	}
	d.SetSignature(f, 12345)
	if d.Dirty(f) || d.Signature(f) != 12345 {
		t.Error("SetSignature must install content and clear dirty")
	}
}

func TestSignatureMixOrderSensitive(t *testing.T) {
	var a, b Signature
	a = a.Mix(1, 1).Mix(2, 2)
	b = b.Mix(2, 2).Mix(1, 1)
	if a == b {
		t.Error("different write orders should (almost surely) differ")
	}
	if a == a.Mix(1, 3) {
		t.Error("mixing must change the signature")
	}
}

func TestAllocRangeAlignedRun(t *testing.T) {
	d := NewDevice(64)
	base, err := d.AllocRange(32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if int(base)%16 != 0 {
		t.Errorf("base %d not 16-aligned", base)
	}
	for i := 0; i < 16; i++ {
		if d.Owner(base+sim.FrameID(i)) != sim.PageID(32+i) {
			t.Errorf("frame %d owner wrong", i)
		}
	}
	if d.FreeFrames() != 48 {
		t.Errorf("free = %d, want 48", d.FreeFrames())
	}
}

func TestAllocRangeFragmented(t *testing.T) {
	d := NewDevice(32)
	// Occupy one frame inside each aligned 16-run.
	fa, _ := d.AllocRange(0, 1)
	_ = fa
	// Frame 0 taken; second run: take frame 16 by allocating singles
	// until one lands there is fragile — instead fill frames 1..16.
	for i := 1; i <= 16; i++ {
		if _, err := d.Alloc(sim.PageID(1000 + i)); err != nil {
			t.Fatal(err)
		}
	}
	// Frames 0..16 busy; only 17..31 free: no aligned 16-run exists.
	if _, err := d.AllocRange(64, 16); !errors.Is(err, ErrOutOfFrames) {
		t.Errorf("expected ErrOutOfFrames on fragmented memory, got %v", err)
	}
}

func TestAllocRangeSpanOne(t *testing.T) {
	d := NewDevice(2)
	f, err := d.AllocRange(9, 1)
	if err != nil || d.Owner(f) != 9 {
		t.Errorf("span-1 range alloc failed: %v", err)
	}
}

func TestDeviceNeverDoubleAllocatesProperty(t *testing.T) {
	// Property: under a random alloc/free workload the allocator never
	// hands out an owned frame and conserves the frame count.
	f := func(ops []uint16) bool {
		d := NewDevice(16)
		owned := make(map[sim.FrameID]bool)
		for i, op := range ops {
			if op%3 != 0 && len(owned) > 0 && op%2 == 1 {
				for fr := range owned {
					d.Free(fr)
					delete(owned, fr)
					break
				}
				continue
			}
			fr, err := d.Alloc(sim.PageID(i))
			if err != nil {
				if len(owned) != 16 {
					return false // spurious exhaustion
				}
				continue
			}
			if owned[fr] {
				return false // double allocation
			}
			owned[fr] = true
		}
		return d.FreeFrames()+len(owned) == 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHostPageOutIn(t *testing.T) {
	h := NewHost(nil, 0)
	if got := h.PageIn(42); got != 0 {
		t.Errorf("unwritten page reads %d, want zero-fill", got)
	}
	h.PageOut(42, 999)
	if got := h.PageIn(42); got != 999 {
		t.Errorf("PageIn = %d, want 999", got)
	}
	if s, ok := h.Peek(42); !ok || s != 999 {
		t.Error("Peek mismatch")
	}
	if _, ok := h.Peek(43); ok {
		t.Error("Peek of absent page")
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d", h.Len())
	}
	if h.OutBytes != sim.PageSize4k || h.InBytes != 2*sim.PageSize4k {
		t.Errorf("byte accounting: in=%d out=%d", h.InBytes, h.OutBytes)
	}
}

// TestHostSizedStore pins the dense store's presence semantics: a page
// never written reads as zero and is absent, a page written back with
// the zero signature is present, Len counts distinct pages, and VPNs
// past the sized range grow the store without losing earlier pages.
func TestHostSizedStore(t *testing.T) {
	h := NewHost(nil, 100)
	if got := h.PageIn(7); got != 0 {
		t.Errorf("unwritten page reads %d, want zero-fill", got)
	}
	if _, ok := h.Peek(7); ok {
		t.Error("unwritten page is present")
	}
	h.PageOut(7, 0)
	if s, ok := h.Peek(7); !ok || s != 0 {
		t.Errorf("page written back with signature 0: Peek = %d, %v", s, ok)
	}
	h.PageOut(7, 5)
	h.PageOut(99, 6)
	if h.Len() != 2 {
		t.Errorf("Len = %d after rewriting one of two pages, want 2", h.Len())
	}
	h.PageOut(100, 9) // first VPN past the sized range
	h.PageOut(100_000, 8)
	for vpn, want := range map[sim.PageID]Signature{7: 5, 99: 6, 100: 9, 100_000: 8} {
		if s, ok := h.Peek(vpn); !ok || s != want {
			t.Errorf("Peek(%d) = %d, %v, want %d", vpn, s, ok, want)
		}
	}
	if _, ok := h.Peek(100_001); ok {
		t.Error("page past the written range is present")
	}
	if _, ok := h.Peek(-1); ok {
		t.Error("negative page is present")
	}
	if h.Len() != 4 {
		t.Errorf("Len = %d, want 4", h.Len())
	}
}
