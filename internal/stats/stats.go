// Package stats collects and aggregates per-core event counters for the
// CMCP simulator and renders them as aligned text tables or CSV. The
// counter set mirrors the attributes the paper reports in Table 1 (page
// faults, remote TLB invalidations, dTLB misses) plus the internal
// quantities used to explain them (IPIs, lock wait, bytes moved).
package stats

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"cmcp/internal/hist"
	"cmcp/internal/sim"
)

// Counter identifies one per-core event counter.
type Counter uint8

const (
	// PageFaults counts major faults (page not present on the device).
	PageFaults Counter = iota
	// MinorFaults counts faults resolved by copying a sibling core's
	// PTE under PSPT (page resident, mapping absent on this core).
	MinorFaults
	// RemoteTLBInvalidations counts invalidation requests *received*
	// from other cores (the paper's "remote TLB invalidations").
	RemoteTLBInvalidations
	// IPIsSent counts invalidation requests initiated by this core,
	// one per target core.
	IPIsSent
	// DTLBMisses counts data TLB misses (L1 miss; includes L2 hits).
	DTLBMisses
	// TLBL2Hits counts L1 misses that hit in the unified L2 TLB.
	TLBL2Hits
	// PageWalks counts full page-table walks.
	PageWalks
	// Evictions counts victim pages this core swapped out.
	Evictions
	// WriteBacks counts dirty evictions that required a device-to-host
	// copy before reuse of the frame.
	WriteBacks
	// BytesIn counts host-to-device bytes transferred on behalf of
	// this core's faults.
	BytesIn
	// BytesOut counts device-to-host write-back bytes.
	BytesOut
	// LockWaitCycles accumulates virtual time spent queueing on page
	// table locks.
	LockWaitCycles
	// ScanClears counts accessed bits cleared by the LRU scanner.
	ScanClears
	// Touches counts simulated page touches executed.
	Touches
	// The twelve counters from FaultsInjected to PTMigrations are always
	// zero: the six up to DegradedPages belonged to the fault injector,
	// the six from FilteredShootdowns to the multi-socket topology, and
	// both are gone. They stay in place under their names because the
	// benchmark's fingerprints pin every counter name, so renaming or
	// removing them waits for a change to the benchmark.
	FaultsInjected
	RecoveryRetries
	TxRollbacks
	QuarantinedFrames
	ResentShootdowns
	DegradedPages
	FilteredShootdowns
	CrossSocketIPIs
	RemoteWalks
	RemotePTConsults
	ReplicaSyncs
	PTMigrations

	numCounters
)

var counterNames = [numCounters]string{
	"page_faults",
	"minor_faults",
	"remote_tlb_invalidations",
	"ipis_sent",
	"dtlb_misses",
	"tlb_l2_hits",
	"page_walks",
	"evictions",
	"write_backs",
	"bytes_in",
	"bytes_out",
	"lock_wait_cycles",
	"scan_clears",
	"touches",
	"faults_injected",
	"recovery_retries",
	"tx_rollbacks",
	"quarantined_frames",
	"resent_shootdowns",
	"degraded_pages",
	"filtered_shootdowns",
	"cross_socket_ipis",
	"remote_walks",
	"remote_pt_consults",
	"replica_syncs",
	"pt_migrations",
}

// NumCounters is the number of distinct counters.
const NumCounters = int(numCounters)

// CounterNames returns the snake_case names of all counters in index
// order. This is the single source of truth consumed by every other
// layer that renders counters (tables, CSV, the obs sampler), so a new
// counter automatically appears everywhere; a test cross-checks the
// table for gaps and duplicates.
func CounterNames() []string {
	out := make([]string, numCounters)
	copy(out, counterNames[:])
	return out
}

// Name returns the snake_case name of the counter.
func (c Counter) Name() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", uint8(c))
}

// HistID identifies one per-run latency/fan-out histogram. Histograms
// are whole-run (not per-core): their job is the distribution tail,
// and per-core splits would shrink every sample set by the core count
// for no analytical gain the counters don't already provide.
type HistID uint8

const (
	// FaultServiceHist is end-to-end page-fault service time in cycles,
	// fault entry to translation installed — minor and major faults,
	// including lock waits, eviction work and DMA queueing.
	FaultServiceHist HistID = iota
	// EvictionHist is the evictor-side latency of one eviction in
	// cycles: unmap, shootdown delivery round trips and local
	// invalidations (the write-back's wire time is on the DMA bus).
	EvictionHist
	// ShootdownHist is the per-target shootdown round-trip in cycles:
	// IPI delivery to one remote core and its ack over the ring.
	ShootdownHist
	// LockWaitHist is the duration of one non-zero wait on a
	// serialization point (allocator lock, DMA bus, page-table lock)
	// in cycles.
	LockWaitHist
	// FanoutHist is the number of target cores of one TLB-shootdown
	// broadcast (eviction or scanner clear).
	FanoutHist

	numHists
)

// NumHists is the number of distinct histograms.
const NumHists = int(numHists)

// histNames is the single string table for histogram names, the same
// single-source-of-truth contract as counterNames: every renderer
// (JSON, journal header, -run summary) derives its labels from
// HistNames, and a test cross-checks the table for gaps/duplicates.
var histNames = [numHists]string{
	"fault_service_cycles",
	"eviction_latency_cycles",
	"shootdown_rtt_cycles",
	"lock_wait_latency_cycles",
	"shootdown_fanout_cores",
}

// HistNames returns the snake_case names of all histograms in index
// order.
func HistNames() []string {
	out := make([]string, numHists)
	copy(out, histNames[:])
	return out
}

// Name returns the snake_case name of the histogram.
func (h HistID) Name() string {
	if int(h) < len(histNames) {
		return histNames[h]
	}
	return fmt.Sprintf("hist(%d)", uint8(h))
}

// HistSet is the fixed array of a run's histograms, indexed by HistID.
// One allocation covers all of them; recording is index + hist.Record.
type HistSet [numHists]hist.H

// Get returns the histogram for id.
func (s *HistSet) Get(id HistID) *hist.H { return &s[id] }

// Record adds one value to histogram id.
func (s *HistSet) Record(id HistID, v uint64) { s[id].Record(v) }

// Merge pools other into s, histogram by histogram (exact; see
// hist.Merge).
func (s *HistSet) Merge(other *HistSet) {
	for i := range s {
		s[i].Merge(&other[i])
	}
}

// Reset empties every histogram in place (the engine calls this at the
// warm-up barrier so the measured phase starts with clean
// distributions, mirroring the counter rebase).
func (s *HistSet) Reset() { *s = HistSet{} }

// Run holds the complete measurement record of one simulation run:
// per-core counters, per-core finishing times, and the run's metadata.
type Run struct {
	Cores    int
	counters []uint64 // flat [core*NumCounters+counter]; scanner is row Cores
	Finish   []sim.Cycles
	// Hists holds the run's latency/fan-out histograms; nil unless the
	// run was configured with histograms enabled (machine.Config.Hist).
	Hists *HistSet
	// Tenants holds the per-tenant counters and fault-service
	// histograms; nil unless the run was multi-tenant
	// (machine.Config.Tenants).
	Tenants *TenantSet
}

// NewRun allocates a record for n application cores plus the scanner
// pseudo-core (index n).
func NewRun(n int) *Run {
	return &Run{
		Cores:    n,
		counters: make([]uint64, (n+1)*NumCounters),
		Finish:   make([]sim.Cycles, n+1),
	}
}

// EnableHists attaches an empty histogram set to the run (idempotent).
// One allocation; recording into it never allocates.
func (r *Run) EnableHists() *HistSet {
	if r.Hists == nil {
		r.Hists = &HistSet{}
	}
	return r.Hists
}

// EnableTenants attaches a zeroed per-tenant record for n tenants
// (idempotent when the tenant count matches).
func (r *Run) EnableTenants(n int) *TenantSet {
	if r.Tenants == nil || r.Tenants.n != n {
		r.Tenants = NewTenantSet(n)
	}
	return r.Tenants
}

// Add increments counter c for core by delta.
func (r *Run) Add(core sim.CoreID, c Counter, delta uint64) {
	r.counters[int(core)*NumCounters+int(c)] += delta
}

// Get returns the value of counter c for core.
func (r *Run) Get(core sim.CoreID, c Counter) uint64 {
	return r.counters[int(core)*NumCounters+int(c)]
}

// Total sums counter c over the application cores (excluding the
// scanner pseudo-core).
func (r *Run) Total(c Counter) uint64 {
	var t uint64
	for i := 0; i < r.Cores; i++ {
		t += r.counters[i*NumCounters+int(c)]
	}
	return t
}

// PerCoreAvg returns the application-core average of counter c, the
// quantity Table 1 of the paper reports.
func (r *Run) PerCoreAvg(c Counter) float64 {
	if r.Cores == 0 {
		return 0
	}
	return float64(r.Total(c)) / float64(r.Cores)
}

// Runtime returns the simulated makespan: the latest finishing time of
// any application core.
func (r *Run) Runtime() sim.Cycles {
	var m sim.Cycles
	for i := 0; i < r.Cores; i++ {
		if r.Finish[i] > m {
			m = r.Finish[i]
		}
	}
	return m
}

// Merge adds other's counters, takes the elementwise max of finish
// times, and pools histograms when present. Both runs must have the
// same core count and the same histogram presence — merging a
// histogram-bearing run into a bare one (or vice versa) would silently
// drop or dilute distributions, so it is an error instead.
func (r *Run) Merge(other *Run) error {
	if other.Cores != r.Cores {
		return fmt.Errorf("stats: merging runs with %d and %d cores", r.Cores, other.Cores)
	}
	if (r.Hists == nil) != (other.Hists == nil) {
		return fmt.Errorf("stats: merging runs with mismatched histogram presence")
	}
	if (r.Tenants == nil) != (other.Tenants == nil) {
		return fmt.Errorf("stats: merging runs with mismatched tenant-record presence")
	}
	for i := range r.counters {
		r.counters[i] += other.counters[i]
	}
	for i := range r.Finish {
		if other.Finish[i] > r.Finish[i] {
			r.Finish[i] = other.Finish[i]
		}
	}
	if r.Hists != nil {
		r.Hists.Merge(other.Hists)
	}
	if r.Tenants != nil {
		if err := r.Tenants.Merge(other.Tenants); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy of the run record: counters, finish times,
// histograms and tenant record (the sweep's replicate merge accumulates
// into a clone of the first replicate).
func (r *Run) Clone() *Run {
	c := &Run{Cores: r.Cores, counters: slices.Clone(r.counters), Finish: slices.Clone(r.Finish)}
	if r.Hists != nil {
		h := *r.Hists
		c.Hists = &h
	}
	if r.Tenants != nil {
		c.Tenants = r.Tenants.clone()
	}
	return c
}

// SnapshotCounters copies every counter of the run into one slice: the
// per-core matrix, then the per-tenant matrix when the run has one. Finish times and histograms are not part of it. The
// engine takes one at the warm-up barrier and hands it to Rebase.
func (r *Run) SnapshotCounters() []uint64 {
	tc := r.tenantCounters()
	snap := make([]uint64, len(r.counters)+len(tc))
	copy(snap[copy(snap, r.counters):], tc)
	return snap
}

// Rebase subtracts a SnapshotCounters snapshot of this run from its
// counters, so they count only what happened after the snapshot. It is
// how the engine reports only the measured phase after a warm-up.
// Finish times are left untouched (the engine rebases those itself),
// and histograms are reset at the warm-up barrier instead: bucket
// counts of a prefix cannot be subtracted from a distribution.
func (r *Run) Rebase(snap []uint64) {
	for i := range r.counters {
		r.counters[i] -= snap[i]
	}
	snap = snap[len(r.counters):]
	for i, tc := 0, r.tenantCounters(); i < len(tc); i++ {
		tc[i] -= snap[i]
	}
}

// tenantCounters is the tenant counter matrix, nil on single-tenant runs.
func (r *Run) tenantCounters() []uint64 {
	if r.Tenants == nil {
		return nil
	}
	return r.Tenants.counters
}

// DivideBy divides every counter and finish time by n (used to average
// replicated runs). Histograms are deliberately left pooled: bucket
// counts merge exactly, so the merged histogram IS the distribution of
// all n replicates — its quantiles are the replicate-pooled quantiles —
// whereas dividing integer bucket counts would discard the tail
// samples averaging exists to expose.
func (r *Run) DivideBy(n uint64) {
	if n <= 1 {
		return
	}
	for i := range r.counters {
		r.counters[i] /= n
	}
	for i := range r.Finish {
		r.Finish[i] /= sim.Cycles(n)
	}
	if r.Tenants != nil {
		r.Tenants.DivideBy(n)
	}
}

// runJSON is Run's serialized form: the flat per-core counter matrix
// (rows are cores 0..Cores with the scanner pseudo-core last) plus the
// finish times. Which counter each column is lives one level up — the
// sweep journal's header records the stats.CounterNames() in force when
// the file was written, so a journal from a different counter set is
// rejected instead of silently misattributed.
type runJSON struct {
	Cores    int          `json:"cores"`
	Counters []uint64     `json:"counters"`
	Finish   []sim.Cycles `json:"finish"`
	// Hists serializes the histogram set as a slice (absent when the
	// run recorded none). A slice rather than the fixed array so the
	// reader can length-check instead of letting encoding/json silently
	// truncate or zero-fill a mismatched record.
	Hists []hist.H `json:"hists,omitempty"`
	// Tenants serializes the per-tenant record (absent on single-tenant
	// runs, so pre-tenant journal readers and goldens are unaffected).
	Tenants *TenantSet `json:"tenants,omitempty"`
}

// MarshalJSON encodes the run losslessly: counters, finish times and
// histogram buckets are exact uint64s in Go's round trip, so a
// journaled run merges bit-identically to the in-memory one it
// snapshots.
func (r *Run) MarshalJSON() ([]byte, error) {
	j := runJSON{Cores: r.Cores, Counters: r.counters, Finish: r.Finish, Tenants: r.Tenants}
	if r.Hists != nil {
		j.Hists = r.Hists[:]
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes a run written by MarshalJSON, rejecting records
// whose shape does not match the current counter and histogram sets.
func (r *Run) UnmarshalJSON(data []byte) error {
	var j runJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Cores < 0 || len(j.Counters) != (j.Cores+1)*NumCounters || len(j.Finish) != j.Cores+1 {
		return fmt.Errorf("stats: run record shape mismatch: %d cores, %d counters, %d finish times",
			j.Cores, len(j.Counters), len(j.Finish))
	}
	var hs *HistSet
	if len(j.Hists) > 0 {
		if len(j.Hists) != NumHists {
			return fmt.Errorf("stats: run record carries %d histograms, this build has %d", len(j.Hists), NumHists)
		}
		hs = &HistSet{}
		for i := range j.Hists {
			if !j.Hists[i].CheckInvariant() {
				return fmt.Errorf("stats: histogram %q count does not match its buckets (torn record?)", HistID(i).Name())
			}
			hs[i] = j.Hists[i]
		}
	}
	r.Cores, r.counters, r.Finish, r.Hists = j.Cores, j.Counters, j.Finish, hs
	r.Tenants = j.Tenants
	return nil
}

// Table is a simple rectangular result table with row labels, used by
// the experiment harness to render paper-style output.
type Table struct {
	Title   string
	Columns []string
	Rows    []TableRow
}

// TableRow is one labelled row of cells.
type TableRow struct {
	Label string
	Cells []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(label string, cells ...any) {
	row := TableRow{Label: label}
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row.Cells = append(row.Cells, FormatFloat(v))
		default:
			row.Cells = append(row.Cells, fmt.Sprintf("%v", c))
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: integers without decimals,
// otherwise two significant decimals.
func FormatFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

// String renders the table as aligned monospace text.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	widths := make([]int, len(t.Columns)+1)
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
		for i, c := range r.Cells {
			if i+1 < len(widths) && len(c) > widths[i+1] {
				widths[i+1] = len(c)
			}
		}
	}
	for i, c := range t.Columns {
		if len(c) > widths[i+1] {
			widths[i+1] = len(c)
		}
	}
	writeRow := func(label string, cells []string) {
		fmt.Fprintf(&b, "%-*s", widths[0], label)
		for i, c := range cells {
			w := 0
			if i+1 < len(widths) {
				w = widths[i+1]
			}
			fmt.Fprintf(&b, "  %*s", w, c)
		}
		b.WriteByte('\n')
	}
	writeRow("", t.Columns)
	for _, r := range t.Rows {
		writeRow(r.Label, r.Cells)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("label")
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(csvEscape(c))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(csvEscape(r.Label))
		for _, c := range r.Cells {
			b.WriteByte(',')
			b.WriteString(csvEscape(c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
