package obs

import (
	"fmt"
	"sync"
	"time"
)

// Progress is a thread-safe progress meter for long parameter sweeps.
// The per-run Recorder answers "what happened inside one simulation";
// Progress answers "how far along is the sweep": runs done out of
// total, the execution rate, and the projected time to completion.
//
// The sweep runner advances it from RunMany's worker goroutines as runs
// complete (executed, or reused from a journal); any other goroutine —
// cmcpsim's -progress ticker, a test — may Snapshot concurrently.
type Progress struct {
	mu       sync.Mutex
	start    time.Time
	total    int
	executed int
	loaded   int
}

// NewProgress returns a meter whose clock starts at the first AddTotal.
func NewProgress() *Progress { return &Progress{} }

// AddTotal grows the expected run count by n (each sweep batch of a
// multi-batch experiment announces its grid as it is built) and starts
// the rate clock on first use.
func (p *Progress) AddTotal(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.start.IsZero() {
		p.start = time.Now()
	}
	p.total += n
}

// NoteExecuted records one run simulated by this process.
func (p *Progress) NoteExecuted() {
	p.mu.Lock()
	p.executed++
	p.mu.Unlock()
}

// NoteLoaded records n runs satisfied from a journal instead of
// executed.
func (p *Progress) NoteLoaded(n int) {
	p.mu.Lock()
	p.loaded += n
	p.mu.Unlock()
}

// ProgressSnapshot is one consistent reading of a Progress meter.
type ProgressSnapshot struct {
	// Total is the number of distinct runs the sweep wants overall: a
	// grid point that recurs is one run (the sweep runner counts
	// content keys).
	Total int
	// Executed is how many this process simulated itself.
	Executed int
	// Loaded is how many were reused from journals.
	Loaded int
	// Elapsed is the wall time since the meter started.
	Elapsed time.Duration
	// RunsPerSec is the execution rate (journal loads excluded: they
	// are effectively free and would corrupt the ETA). Pinned to zero
	// until this process has executed at least one run — a rate
	// extrapolated from zero completions is undefined, not infinite.
	RunsPerSec float64
	// ETA projects the remaining wall time for the runs still to
	// execute, at the current execution rate; zero when unknowable
	// (in particular, always zero before the first executed run).
	ETA time.Duration
}

// Done is Executed+Loaded: runs accounted for in the merged output.
func (s ProgressSnapshot) Done() int { return s.Executed + s.Loaded }

// Snapshot returns a consistent reading.
func (p *Progress) Snapshot() ProgressSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProgressSnapshot{
		Total:    p.total,
		Executed: p.executed,
		Loaded:   p.loaded,
	}
	if !p.start.IsZero() {
		s.Elapsed = time.Since(p.start)
	}
	if s.Elapsed > 0 && p.executed > 0 {
		s.RunsPerSec = float64(p.executed) / s.Elapsed.Seconds()
		remaining := p.total - p.executed - p.loaded
		if remaining > 0 {
			s.ETA = time.Duration(float64(remaining) / s.RunsPerSec * float64(time.Second)).Round(time.Second)
		}
	}
	return s
}

// String renders the snapshot as a one-line status, e.g.
// "34/120 runs (28.3%), 12.4 runs/s, ETA 7s (10 journaled)".
func (s ProgressSnapshot) String() string {
	pct := 0.0
	if s.Total > 0 {
		pct = 100 * float64(s.Done()) / float64(s.Total)
	}
	out := fmt.Sprintf("%d/%d runs (%.1f%%)", s.Done(), s.Total, pct)
	if s.RunsPerSec > 0 {
		out += fmt.Sprintf(", %.1f runs/s", s.RunsPerSec)
	}
	if s.ETA > 0 {
		out += fmt.Sprintf(", ETA %s", s.ETA)
	}
	if s.Loaded > 0 {
		out += fmt.Sprintf(" (%d journaled)", s.Loaded)
	}
	return out
}

// String renders the current snapshot (see ProgressSnapshot.String).
func (p *Progress) String() string { return p.Snapshot().String() }
