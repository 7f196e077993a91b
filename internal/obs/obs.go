// Package obs is the observability layer of the CMCP simulator: a
// low-overhead flight recorder of typed kernel events and a periodic
// time-series sampler, with exporters to JSONL, Chrome trace_event
// JSON (Perfetto / chrome://tracing) and CSV.
//
// The end-of-run aggregates in internal/stats answer *how many* events
// a run generated; this package answers *when*. The paper explains
// CMCP's win through event counts (Table 1: page faults, remote TLB
// invalidations, dTLB misses), but diagnosing a placement decision —
// which evictions trigger shootdown storms, when the priority group
// fills, how per-core clocks skew — needs the event timeline.
//
// A Recorder is attached to a run through machine.Config.Probe. The
// hot paths in internal/vm and internal/machine guard every emission
// with a single nil-pointer check, so a run without a recorder pays
// one predictable branch per instrumented site and nothing else.
//
// Recorders are single-run, single-goroutine objects, matching the
// engine's one-Simulate-is-single-threaded contract: never share one
// Recorder between concurrent Simulate calls (RunMany).
package obs

import (
	"fmt"

	"cmcp/internal/sim"
	"cmcp/internal/stats"
)

// EventType identifies one kind of flight-recorder event.
type EventType uint8

const (
	// EvFault is a major page fault (page-in from the host).
	EvFault EventType = iota
	// EvMinorFault is a PSPT sibling-PTE copy fault.
	EvMinorFault
	// EvEviction is a victim mapping being unmapped; Arg is the number
	// of remote cores whose TLBs had to be shot down.
	EvEviction
	// EvWriteBack is a dirty eviction's device-to-host copy; Arg is the
	// byte count written back.
	EvWriteBack
	// EvShootdown is a remote TLB invalidation broadcast; Arg is the
	// number of target cores interrupted.
	EvShootdown
	// EvScanTick is one run of the policy's periodic machinery on the
	// scanner pseudo-core; Arg is the scanner-side cost in cycles.
	EvScanTick
	// EvPromotion is CMCP admitting a page into the priority group;
	// Arg is the page's core-map-count key at admission.
	EvPromotion
	// EvDemotion is CMCP draining a page from the priority group back
	// to the FIFO list (displacement or aging).
	EvDemotion
	// EvLockWait is a non-zero wait on a serialization point (allocator
	// lock, page-table lock, DMA bus); Arg is the cycles waited.
	EvLockWait

	numEventTypes
)

// NumEventTypes is the number of distinct event types.
const NumEventTypes = int(numEventTypes)

// eventNames is the single string table for event types; kept
// snake_case to match stats counter naming. A test cross-checks it
// against NumEventTypes and stats.CounterNames so the tables cannot
// silently desync.
var eventNames = [numEventTypes]string{
	"fault",
	"minor_fault",
	"eviction",
	"write_back",
	"tlb_shootdown",
	"scan_tick",
	"cmcp_promotion",
	"cmcp_demotion",
	"lock_wait",
}

// String returns the snake_case event name.
func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// EventTypeByName resolves a snake_case event name; ok is false for
// unknown names.
func EventTypeByName(name string) (EventType, bool) {
	for i, n := range eventNames {
		if n == name {
			return EventType(i), true
		}
	}
	return 0, false
}

// PolicyCore is the pseudo-core ID used for events emitted by the
// replacement policy itself (CMCP promotions/demotions), which run on
// behalf of whichever core faulted but belong to the policy's own
// track in trace output.
const PolicyCore sim.CoreID = -1

// Event is one flight-recorder entry. Arg is type-specific (see the
// EventType constants); Page is 0 for events without a page.
type Event struct {
	Time sim.Cycles
	Core sim.CoreID
	Type EventType
	Page sim.PageID
	Arg  int64
}

// Sample is one periodic time-series point: cumulative counter totals
// over the application cores plus instantaneous structural state.
type Sample struct {
	Time sim.Cycles
	// Resident is the number of resident mappings.
	Resident int
	// FIFOLen and PrioLen are CMCP's regular/priority group sizes;
	// both are -1 when the policy does not expose groups.
	FIFOLen, PrioLen int
	// ClockSkew is max-min virtual clock over the still-running
	// application cores (0 with fewer than two active cores).
	ClockSkew sim.Cycles
	// Counters holds the cumulative per-run totals of every stats
	// counter at sample time, indexed by stats.Counter.
	Counters [stats.NumCounters]uint64
}

// Config parameterizes a Recorder.
type Config struct {
	// Events is the flight-recorder ring capacity. When the run emits
	// more events, the oldest are overwritten (Dropped counts them).
	// 0 means DefaultEventCapacity; negative disables event recording.
	Events int
	// SampleEvery is the virtual-cycle sampling interval; 0 disables
	// the sampler. The effective resolution is bounded below by the
	// engine's 25,000-cycle scanner tick, which drives sampling.
	SampleEvery sim.Cycles
}

// DefaultEventCapacity is the ring size used when Config.Events is 0.
const DefaultEventCapacity = 1 << 16

// Recorder is a flight recorder plus sampler for one simulation run.
// It is not safe for concurrent use; attach a fresh Recorder per run.
type Recorder struct {
	ring    []Event
	head    int // next write position
	count   int // valid entries (<= len(ring))
	dropped uint64

	sampleEvery sim.Cycles
	nextSample  sim.Cycles
	samples     []Sample

	now sim.Cycles // last time advanced by the engine
}

// NewRecorder builds a recorder; see Config.
func NewRecorder(cfg Config) *Recorder {
	capacity := cfg.Events
	if capacity == 0 {
		capacity = DefaultEventCapacity
	}
	r := &Recorder{sampleEvery: cfg.SampleEvery}
	if capacity > 0 {
		r.ring = make([]Event, capacity)
	}
	return r
}

// Reset clears all recorded state so the recorder can serve another
// run (benchmarks reuse one allocation across iterations).
func (r *Recorder) Reset() {
	r.head, r.count, r.dropped = 0, 0, 0
	r.nextSample, r.now = 0, 0
	r.samples = r.samples[:0]
}

// Advance moves the recorder's notion of current virtual time forward.
// The engine calls it at fault entry and scanner ticks; events emitted
// without an explicit time (policy callbacks) stamp with this clock.
func (r *Recorder) Advance(t sim.Cycles) {
	if t > r.now {
		r.now = t
	}
}

// Now returns the recorder's current virtual time.
func (r *Recorder) Now() sim.Cycles { return r.now }

// Emit appends one event at virtual time t, overwriting the oldest
// entry when the ring is full.
func (r *Recorder) Emit(t sim.Cycles, core sim.CoreID, typ EventType, page sim.PageID, arg int64) {
	r.Advance(t)
	if len(r.ring) == 0 {
		return
	}
	r.ring[r.head] = Event{Time: t, Core: core, Type: typ, Page: page, Arg: arg}
	r.head++
	if r.head == len(r.ring) {
		r.head = 0
	}
	if r.count < len(r.ring) {
		r.count++
	} else {
		r.dropped++
	}
}

// EmitNow appends one event stamped with the recorder's current time
// (used by policy callbacks that have no clock of their own).
func (r *Recorder) EmitNow(core sim.CoreID, typ EventType, page sim.PageID, arg int64) {
	r.Emit(r.now, core, typ, page, arg)
}

// Events returns the recorded events oldest-first. The slice is a
// fresh copy; mutating it does not affect the recorder.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.count)
	if r.count == len(r.ring) {
		out = append(out, r.ring[r.head:]...)
		out = append(out, r.ring[:r.head]...)
		return out
	}
	return append(out, r.ring[:r.count]...)
}

// Dropped returns how many events were overwritten after the ring
// filled — the price of the flight-recorder's bounded memory.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Sampling reports whether the periodic sampler is enabled.
func (r *Recorder) Sampling() bool { return r.sampleEvery > 0 }

// MaybeSample invokes fill exactly once per elapsed sampling interval:
// when now has reached the next deadline, it appends a Sample stamped
// now and lets the caller populate it. The engine drives this from the
// scanner lane, so resolution is bounded by the tick interval.
func (r *Recorder) MaybeSample(now sim.Cycles, fill func(*Sample)) {
	if r.sampleEvery == 0 || now < r.nextSample {
		return
	}
	r.Advance(now)
	r.nextSample = now + r.sampleEvery
	r.samples = append(r.samples, Sample{Time: now, FIFOLen: -1, PrioLen: -1})
	fill(&r.samples[len(r.samples)-1])
}

// Samples returns the recorded time series oldest-first.
func (r *Recorder) Samples() []Sample { return r.samples }

// NotePromotion implements the core package's structural Observer
// interface: CMCP admitted base into its priority group with the
// given core-map-count key.
func (r *Recorder) NotePromotion(base sim.PageID, key float64) {
	r.EmitNow(PolicyCore, EvPromotion, base, int64(key))
}

// NoteDemotion implements the core package's structural Observer
// interface: CMCP drained base from the priority group back to FIFO.
func (r *Recorder) NoteDemotion(base sim.PageID) {
	r.EmitNow(PolicyCore, EvDemotion, base, 0)
}
