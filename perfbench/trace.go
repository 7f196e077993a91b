package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"cmcp"
	"cmcp/internal/core"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/vm"
)

// spanKind names a span the traced run records around a call the
// benchmark's own code makes into one layer's public functions.
type spanKind uint8

const (
	spanSimulate spanKind = iota // machine: one whole Simulate call
	spanTick                     // policy: Tick from the scanner lane
	spanVictim                   // policy: Victim on the eviction path
	spanPTESetup                 // policy: PTESetup on major and minor faults
	spanRemove                   // policy: Remove
	spanScan                     // vm: ScanAccessed, called back by a policy
	spanBuild                    // workload: one layout build
	spanDrain                    // workload: draining one config's streams
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"machine.simulate", "policy.tick", "policy.victim", "policy.ptesetup",
	"policy.remove", "vm.scan_accessed", "workload.build", "workload.drain",
}

// layers are the Chrome-trace tracks, one per layer.
var layers = []string{"machine", "policy", "vm", "workload"}

var spanLayer = [numSpanKinds]int{0, 1, 1, 1, 1, 2, 3, 3}

// Span is one recorded interval. Times are nanoseconds since the tracer
// started; Parent indexes the tracer's span list (-1 for a root). Spans
// of one Simulate call (or one stream drain) share Call.
type Span struct {
	Name   string `json:"name"`
	Call   int    `json:"call"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`

	kind spanKind
}

// tally aggregates every span, recorded or not: call counts per kind,
// and over the timed spans their count, inclusive time and self time
// (minus child spans), plus the counts the host wrapper takes without
// spans.
type tally struct {
	calls, timed, total, self [numSpanKinds]int64
	tickCalls                 int64 // Tick calls; calls[spanTick] counts batches
	scanHits                  int64
	coreMapCalls              int64
}

func (t tally) sub(o tally) tally {
	for k := range t.total {
		t.calls[k] -= o.calls[k]
		t.timed[k] -= o.timed[k]
		t.total[k] -= o.total[k]
		t.self[k] -= o.self[k]
	}
	t.tickCalls -= o.tickCalls
	t.scanHits -= o.scanHits
	t.coreMapCalls -= o.coreMapCalls
	return t
}

// estimate scales the timed spans' time up to all calls of kind k.
func (t tally) estimate(times *[numSpanKinds]int64, k spanKind) float64 {
	if t.timed[k] == 0 {
		return 0
	}
	return float64(times[k]) * float64(t.calls[k]) / float64(t.timed[k])
}

// openSpan is a timed span on the tracer's stack.
type openSpan struct {
	kind     spanKind
	start    int64
	child    int64 // corrected time of finished child spans
	children int64 // number of finished child spans
	rec      int   // index in tracer.spans, or -1 when not recorded
}

// tracer records spans in memory on the one goroutine running the
// serial engine.
//
// Reading the clock costs tens of nanoseconds, more than a whole policy
// Tick on a 16-page tenant, so two corrections keep the figures honest.
// Only a sample of the spans directly under a root is timed: each with
// probability 1/sampleEvery, decided by a generator reset at every root,
// so repeated calls time the same spans. Children of a timed span are
// timed too; untimed spans are only counted, and tally.estimate scales
// the sample up to all calls. And every timed duration is corrected by
// the tracer's own cost, measured by calibrate: what an empty span
// records, and what each timed child adds to its parent.
//
// A tenant machine ticks every tenant's policy back to back on each
// scanner tick, a few nanoseconds each, which no per-call span resolves.
// So one policy.tick span covers one scanner tick: it opens at the first
// Tick and closes after as many Ticks as the call built policies.
//
// Only the first spanCap timed spans of a call marked for recording are
// kept as records, which bounds memory on calls with millions of
// callbacks.
type tracer struct {
	base      time.Time
	spanCost  int64 // what a timed span records around nothing
	childCost int64 // what a timed child adds to its parent's duration
	call      int
	keep      int
	rng       uint64
	untimed   int // depth of untimed spans open above the stack
	policies  int // policy instances built in this call
	tickLeft  int // Ticks still due in the open policy.tick span
	stack     []openSpan
	tally     tally
	spans     []Span
}

const (
	// spanCap bounds the span records kept per recorded call.
	spanCap = 5_000
	// sampleEvery is the inverse sampling rate of spans under a root.
	sampleEvery = 64
)

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.recalibrate()
	return t
}

// recalibrate re-measures the tracer's own cost, which drifts with the
// host's load; the traced run calls it before every traced Simulate.
func (t *tracer) recalibrate() { t.spanCost, t.childCost = calibrate() }

// calibrate times batches of n empty child spans inside one timed parent
// on an uncorrected tracer, and returns the median batch's per-span
// costs, so that a stall during one batch does not skew the correction.
func calibrate() (spanCost, childCost int64) {
	const batches, n = 15, 2048
	var span, child [batches]int64
	for b := range span {
		c := &tracer{base: time.Now()}
		c.startCall(spanSimulate, false)
		c.stack = append(c.stack, openSpan{kind: spanTick, start: c.now(), rec: -1}) // timed, unsampled
		for i := 0; i < n; i++ {
			c.begin(spanScan)
			c.end()
		}
		c.end()
		c.end()
		span[b], child[b] = c.tally.total[spanScan]/n, c.tally.total[spanTick]/n
	}
	slices.Sort(span[:])
	slices.Sort(child[:])
	return span[batches/2], child[batches/2]
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// startCall opens a root span of kind k under a fresh call id, keeping
// up to spanCap records of the call when record is set.
func (t *tracer) startCall(k spanKind, record bool) {
	t.call++
	t.keep = 0
	if record {
		t.keep = spanCap
	}
	t.rng = 0x9e3779b97f4a7c15
	t.policies, t.tickLeft = 0, 0
	t.begin(k)
}

// sampled reports whether a span directly under a root is timed.
func (t *tracer) sampled() bool {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng%sampleEvery == 0
}

func (t *tracer) begin(k spanKind) {
	t.tally.calls[k]++
	if t.untimed > 0 || (len(t.stack) == 1 && !t.sampled()) {
		t.untimed++
		return
	}
	s := openSpan{kind: k, start: t.now(), rec: -1}
	if t.keep > 0 {
		t.keep--
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].rec
		}
		s.rec = len(t.spans)
		t.spans = append(t.spans, Span{Name: spanNames[k], Call: t.call, Start: s.start, Parent: parent, kind: k})
	}
	t.stack = append(t.stack, s)
}

func (t *tracer) end() {
	if t.untimed > 0 {
		t.untimed--
		return
	}
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	end := t.now()
	d := end - s.start - t.spanCost - s.children*t.childCost
	t.tally.timed[s.kind]++
	t.tally.total[s.kind] += d
	t.tally.self[s.kind] += d - s.child
	if n > 0 {
		t.stack[n-1].child += d
		t.stack[n-1].children++
	}
	if s.rec >= 0 {
		t.spans[s.rec].End = end
	}
}

// tracedPolicy decorates a built-in policy with spans around every
// call the simulated kernel makes into it.
type tracedPolicy struct {
	inner policy.Policy
	tr    *tracer
}

func (p *tracedPolicy) Name() string  { return p.inner.Name() }
func (p *tracedPolicy) Resident() int { return p.inner.Resident() }

func (p *tracedPolicy) PTESetup(base sim.PageID) {
	p.tr.begin(spanPTESetup)
	p.inner.PTESetup(base)
	p.tr.end()
}

func (p *tracedPolicy) Victim() (sim.PageID, bool) {
	p.tr.begin(spanVictim)
	base, ok := p.inner.Victim()
	p.tr.end()
	return base, ok
}

func (p *tracedPolicy) Remove(base sim.PageID) {
	p.tr.begin(spanRemove)
	p.inner.Remove(base)
	p.tr.end()
}

func (p *tracedPolicy) Tick(now sim.Cycles) {
	tr := p.tr
	if tr.tickLeft == 0 {
		tr.begin(spanTick)
		tr.tickLeft = tr.policies
	}
	p.inner.Tick(now)
	tr.tally.tickCalls++
	if tr.tickLeft--; tr.tickLeft == 0 {
		tr.end()
	}
}

// grouper is the sampler hook CMCP exposes (machine reads its group
// split when sampling).
type grouper interface{ Groups() (int, int) }

// wrapPolicy decorates inner, forwarding the optional extensions the
// simulator probes for — vm.FaultObserver (CMCP's dynamic-p tuner) and
// the Groups sampler hook — exactly when inner implements them.
func wrapPolicy(inner policy.Policy, tr *tracer) policy.Policy {
	p := &tracedPolicy{inner: inner, tr: tr}
	fo, isFO := inner.(vm.FaultObserver)
	g, isG := inner.(grouper)
	switch {
	case isFO && isG:
		return struct {
			*tracedPolicy
			vm.FaultObserver
			grouper
		}{p, fo, g}
	case isFO:
		return struct {
			*tracedPolicy
			vm.FaultObserver
		}{p, fo}
	case isG:
		return struct {
			*tracedPolicy
			grouper
		}{p, g}
	}
	return p
}

// tracedHost wraps the kernel handed to a policy, so the vm callbacks a
// policy makes become child spans of the policy span that made them.
// CoreMapCount is a slice read, so it is only counted.
type tracedHost struct {
	inner policy.Host
	tr    *tracer
}

func (h tracedHost) CoreMapCount(base sim.PageID) int {
	h.tr.tally.coreMapCalls++
	return h.inner.CoreMapCount(base)
}

func (h tracedHost) ScanAccessed(base sim.PageID) bool {
	h.tr.begin(spanScan)
	hit := h.inner.ScanAccessed(base)
	h.tr.end()
	if hit {
		h.tr.tally.scanHits++
	}
	return hit
}

// builtinFactory builds the config's built-in policy with the
// parameters machine.buildPolicy uses (capacity in mappings, pages the
// policy's page-index hint), so a decorated run decides exactly what
// the plain run decides.
func builtinFactory(cfg cmcp.Config, capacity, pages int) (vm.PolicyFactory, error) {
	ps := cfg.Policy
	period := func() sim.Cycles {
		if ps.ScanPeriod == 0 {
			return 50_000
		}
		return ps.ScanPeriod
	}
	batch := func() int {
		if ps.ScanBatch == 0 {
			return capacity
		}
		return ps.ScanBatch
	}
	switch ps.Kind {
	case cmcp.FIFO:
		return func(policy.Host) policy.Policy { return policy.NewFIFOIn(nil, pages) }, nil
	case cmcp.LRU:
		return func(h policy.Host) policy.Policy {
			return policy.NewLRU(h, policy.WithScanPeriod(period()), policy.WithLRUArena(nil, pages), policy.WithScanBatch(batch()))
		}, nil
	case cmcp.CMCP:
		if ps.P > 1 {
			return nil, fmt.Errorf("CMCP p=%v out of [0,1]", ps.P)
		}
		return func(h policy.Host) policy.Policy {
			opts := []core.Option{core.WithArena(nil, pages)}
			if ps.P >= 0 {
				opts = append(opts, core.WithP(ps.P))
			}
			if ps.DynamicP {
				opts = append(opts, core.WithTuner(core.NewTuner(core.TunerConfig{})))
			}
			return core.New(h, capacity, opts...)
		}, nil
	case cmcp.CLOCK:
		return func(h policy.Host) policy.Policy { return policy.NewClockIn(h, nil, pages) }, nil
	case cmcp.LFU:
		return func(h policy.Host) policy.Policy {
			return policy.NewLFU(h, policy.WithLFUScanPeriod(period()), policy.WithLFUArena(nil, pages), policy.WithLFUScanBatch(batch()))
		}, nil
	case cmcp.Random:
		return func(policy.Host) policy.Policy { return policy.NewRandomIn(cfg.Seed^0xabcdef, nil, pages) }, nil
	}
	return nil, fmt.Errorf("unknown policy kind %v", ps.Kind)
}

// tracedConfig returns bc's config with its policy rebuilt behind the
// span decorator. pages is the config's laid-out footprint.
func tracedConfig(bc benchConfig, pages int, tr *tracer) (cmcp.Config, error) {
	cfg := bc.cfg
	if cfg.Policy.Factory != nil {
		return cfg, fmt.Errorf("%s: only built-in policies can be traced", bc.name)
	}
	frames, polPages := bc.frames(pages), pages
	if cfg.Tenants != nil {
		// Per-tenant instances size to the tenant, as in machine.simulate.
		frames, polPages = max(frames/cfg.Tenants.Tenants, 1), cfg.Tenants.PagesPerTenant
	}
	inner, err := builtinFactory(cfg, frames/int(cfg.PageSize.Span()), polPages)
	if err != nil {
		return cfg, err
	}
	cfg.Policy.Factory = func(h policy.Host) policy.Policy {
		tr.policies++
		return wrapPolicy(inner(tracedHost{inner: h, tr: tr}), tr)
	}
	return cfg, nil
}

// writeSpans writes the recorded spans twice under dir: as a span list
// (<stem>.spans.json) and as Chrome trace-event JSON with one track per
// layer (<stem>.trace.json), which Perfetto opens.
func writeSpans(dir, stem string, host hostInfo, spans []Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, stem+".spans.json"), struct {
		Schema string   `json:"schema"`
		Host   hostInfo `json:"host"`
		Spans  []Span   `json:"spans"`
	}{"cmcp-perfbench-spans/v1", host, spans}); err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(layers)+len(spans))
	for i, l := range layers {
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: i, Args: map[string]any{"name": l}})
	}
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: spanLayer[s.kind],
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"call": s.Call},
		})
	}
	return writeJSON(filepath.Join(dir, stem+".trace.json"), struct {
		TraceEvents []event `json:"traceEvents"`
		Unit        string  `json:"displayTimeUnit"`
	}{events, "ns"})
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
