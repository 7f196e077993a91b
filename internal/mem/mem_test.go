package mem

import (
	"errors"
	"math/rand"
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
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(103))}); err != nil {
		t.Error(err)
	}
}
