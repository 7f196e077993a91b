package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestProgressCounts(t *testing.T) {
	p := NewProgress()
	if s := p.Snapshot(); s.Total != 0 || s.Done() != 0 {
		t.Fatalf("fresh meter not zero: %+v", s)
	}
	p.AddTotal(10)
	p.AddTotal(10) // multi-batch experiments announce grids incrementally
	p.NoteLoaded(3)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.NoteExecuted()
		}()
	}
	wg.Wait()

	s := p.Snapshot()
	if s.Total != 20 || s.Executed != 4 || s.Loaded != 3 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Done() != 7 {
		t.Fatalf("Done() = %d, want 7", s.Done())
	}
	if s.Elapsed <= 0 {
		t.Error("clock did not start at AddTotal")
	}

	str := s.String()
	for _, frag := range []string{"7/20 runs", "(3 journaled)"} {
		if !strings.Contains(str, frag) {
			t.Errorf("String() = %q, missing %q", str, frag)
		}
	}
}

func TestProgressStringEmpty(t *testing.T) {
	// A meter nobody advanced must render without dividing by zero.
	if got := NewProgress().String(); !strings.Contains(got, "0/0 runs (0.0%)") {
		t.Errorf("String() = %q", got)
	}
}

// TestProgressZeroCompletions pins the rate/ETA contract before the
// first executed run: a sweep that has only planned work (or only
// loaded journal entries) has no execution rate to extrapolate, so
// both stay zero and the status line omits them.
func TestProgressZeroCompletions(t *testing.T) {
	p := NewProgress()
	p.AddTotal(50)
	p.NoteLoaded(10) // journal loads are free: they must not start the rate
	s := p.Snapshot()
	if s.RunsPerSec != 0 {
		t.Errorf("RunsPerSec = %v before any executed run, want 0", s.RunsPerSec)
	}
	if s.ETA != 0 {
		t.Errorf("ETA = %v before any executed run, want 0", s.ETA)
	}
	str := s.String()
	if strings.Contains(str, "runs/s") || strings.Contains(str, "ETA") {
		t.Errorf("String() = %q renders a rate/ETA from zero completions", str)
	}
}

// TestProgressHammer drives every mutator and both readers from many
// goroutines at once; under -race (CI runs the whole suite with it)
// this is the meter's data-race proof, and the final snapshot proves
// no update was lost.
func TestProgressHammer(t *testing.T) {
	const workers, iters = 16, 250
	p := NewProgress()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p.AddTotal(3)
				p.NoteExecuted()
				p.NoteLoaded(1)
				snap := p.Snapshot()
				if snap.Done() > snap.Total {
					t.Errorf("torn snapshot: done %d > total %d", snap.Done(), snap.Total)
					return
				}
				_ = snap.String()
				_ = p.String()
			}
		}()
	}
	wg.Wait()
	s := p.Snapshot()
	n := workers * iters
	if s.Total != 3*n || s.Executed != n || s.Loaded != n {
		t.Fatalf("lost updates: %+v (want total=%d executed=loaded=%d)", s, 3*n, n)
	}
	if s.RunsPerSec <= 0 {
		t.Errorf("RunsPerSec = %v after %d executed runs", s.RunsPerSec, n)
	}
}
