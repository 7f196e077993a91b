// Package cmcp is a deterministic many-core virtual-memory simulator
// reproducing "CMCP: A Novel Page Replacement Policy for System Level
// Hierarchical Memory Management on Many-cores" (Gerofi et al.,
// HPDC 2014).
//
// The simulated machine is a Knights Corner-like co-processor: up to 60
// cores with per-core multi-size-class TLBs, a small on-board device
// memory backed by host RAM over a PCIe-like link, and an OS-level
// paging subsystem that moves 4 kB / 64 kB / 2 MB pages between the two
// transparently. Two page-table organizations are available — regular
// shared tables and per-core Partially Separated Page Tables (PSPT) —
// and six replacement policies: FIFO, a Linux-style LRU approximation,
// the paper's CMCP, CLOCK, LFU and Random.
//
// # Quick start
//
//	res, err := cmcp.Simulate(cmcp.Config{
//	    Cores:       56,
//	    Workload:    cmcp.SCALE(),
//	    MemoryRatio: 0.5,                       // device holds half the footprint
//	    Tables:      cmcp.PSPT,
//	    Policy:      cmcp.PolicySpec{Kind: cmcp.CMCP, P: 0.875},
//	})
//
// Results carry the paper's Table 1 counters (page faults, remote TLB
// invalidations, dTLB misses, and more) per core plus the simulated
// runtime in cycles. The experiments subcommands of cmd/cmcpsim
// regenerate every figure and table of the paper's evaluation.
//
// Everything is deterministic: the same Config yields bit-identical
// results on any platform.
package cmcp

import (
	"io"

	"cmcp/internal/check"
	"cmcp/internal/core"
	"cmcp/internal/experiments"
	"cmcp/internal/hist"
	"cmcp/internal/machine"
	"cmcp/internal/obs"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/sweep"
	"cmcp/internal/trace"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

// Core simulation types.
type (
	// Config describes one simulation run; see Simulate.
	Config = machine.Config
	// Result is a completed run's measurements.
	Result = machine.Result
	// PolicySpec selects and parameterizes the replacement policy.
	PolicySpec = machine.PolicySpec
	// PolicyKind names a built-in replacement policy.
	PolicyKind = machine.PolicyKind
	// TableKind selects the page-table organization.
	TableKind = vm.TableKind
	// EngineKind selects the simulation engine (Config.Engine).
	EngineKind = machine.EngineKind
	// PageSize is a mapping granularity (4 kB, 64 kB or 2 MB).
	PageSize = sim.PageSize
	// Cycles is simulated time in 1.053 GHz CPU cycles.
	Cycles = sim.Cycles
	// CoreID identifies a simulated CPU core.
	CoreID = sim.CoreID
	// PageID is a virtual page number in 4 kB units.
	PageID = sim.PageID
	// CostModel is the cycle-cost calibration; see DefaultCostModel.
	CostModel = sim.CostModel
	// Run is the per-core counter record of a simulation.
	Run = stats.Run
	// Counter identifies one per-core event counter in a Run.
	Counter = stats.Counter
	// Workload is the parametric description of an application.
	Workload = workload.Spec
	// ShareBand declares a page-sharing band of a Workload.
	ShareBand = workload.ShareBand
	// Policy is the replacement policy interface for custom policies
	// (install one via PolicySpec.Factory).
	Policy = policy.Policy
	// PolicyHost is the kernel-side interface handed to policies.
	PolicyHost = policy.Host
	// PolicyFactory builds a policy against the kernel's PolicyHost.
	PolicyFactory = vm.PolicyFactory
)

// Replacement policies.
const (
	// FIFO is the first-in first-out baseline.
	FIFO = machine.FIFO
	// LRU is the Linux-style active/inactive approximation whose
	// access-bit scanning generates the remote TLB invalidations the
	// paper measures.
	LRU = machine.LRU
	// CMCP is the paper's Core-Map Count based Priority policy.
	CMCP = machine.CMCP
	// CLOCK is the second-chance algorithm.
	CLOCK = machine.CLOCK
	// LFU is a sampled least-frequently-used approximation.
	LFU = machine.LFU
	// Random evicts uniformly at random (sanity baseline).
	Random = machine.Random
)

// Simulation engines. Both produce bit-identical Results for every
// Config; the parallel engine trades single-thread simplicity for
// speculative multi-core execution (see DESIGN.md §13).
const (
	// SerialEngine is the reference event loop (the default).
	SerialEngine = machine.SerialEngine
	// ParallelEngine is the epoch-parallel engine: speculative per-core
	// probe phases with journaled rollback, committed by a serial sweep.
	ParallelEngine = machine.ParallelEngine
)

// ParseEngine parses an engine name ("serial", "parallel"; "" means
// serial) as accepted by cmcpsim -engine.
func ParseEngine(s string) (EngineKind, error) { return machine.ParseEngine(s) }

// Page-table organizations.
const (
	// RegularPT shares one set of page tables among all cores; TLB
	// shootdowns must broadcast and faults serialize on one lock.
	RegularPT = vm.RegularPT
	// PSPT gives each core a private table for the computation area:
	// precise shootdowns, per-page locks, free core-map counts.
	PSPT = vm.PSPTKind
)

// Mapping granularities of the simulated Xeon Phi MMU.
const (
	// Size4k is the base 4 kB page.
	Size4k = sim.Size4k
	// Size64k is the Phi's experimental 64 kB PTE-group page.
	Size64k = sim.Size64k
	// Size2M is the 2 MB large page.
	Size2M = sim.Size2M
)

// Per-core counters most users read from a Run (the full set lives in
// internal/stats; these are the ones Table 1 of the paper reports).
const (
	// PageFaults counts major faults (page-ins from the host).
	PageFaults = stats.PageFaults
	// MinorFaults counts PSPT sibling-PTE copies.
	MinorFaults = stats.MinorFaults
	// RemoteTLBInvalidations counts invalidation requests received.
	RemoteTLBInvalidations = stats.RemoteTLBInvalidations
	// DTLBMisses counts first-level data TLB misses.
	DTLBMisses = stats.DTLBMisses
	// Evictions counts victim pages swapped out.
	Evictions = stats.Evictions
	// BytesIn counts host-to-device transfer volume.
	BytesIn = stats.BytesIn
	// BytesOut counts device-to-host write-back volume.
	BytesOut = stats.BytesOut
	// Touches counts simulated page touches executed.
	Touches = stats.Touches
)

// Simulate executes one deterministic run to completion.
func Simulate(cfg Config) (*Result, error) { return machine.Simulate(cfg) }

// RunMany executes independent runs concurrently (parallelism <= 0
// means GOMAXPROCS), preserving input order.
func RunMany(cfgs []Config, parallelism int) ([]*Result, error) {
	return machine.RunMany(cfgs, parallelism)
}

// DefaultCostModel returns the calibrated Knights Corner cycle costs.
func DefaultCostModel() CostModel { return sim.DefaultCostModel() }

// KNLCostModel returns a Knights Landing-like model: on-package near
// memory instead of PCIe (the paper's §7 outlook). CPU-side costs are
// unchanged, so the shootdown economics — and CMCP's advantage —
// carry over.
func KNLCostModel() CostModel { return sim.KNLCostModel() }

// BT returns the NAS Block Tridiagonal workload model (B-class
// footprint; use Workload.Scale to shrink or grow it).
func BT() Workload { return workload.BT() }

// LU returns the NAS Lower-Upper Gauss-Seidel workload model.
func LU() Workload { return workload.LU() }

// CG returns the NAS Conjugate Gradient workload model.
func CG() Workload { return workload.CG() }

// SCALE returns the RIKEN climate-stencil workload model.
func SCALE() Workload { return workload.SCALE() }

// Workloads returns the paper's four applications in evaluation order.
func Workloads() []Workload { return workload.Apps() }

// WorkloadByName resolves "bt.B", "lu.B", "cg.B" or "SCALE".
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// Multi-tenant machines: set Config.Tenants (instead of Config.Workload)
// and the run becomes many address spaces — one per tenant, each with
// its own replacement-policy instance — contending for the shared
// device frame pool under a deterministic Zipfian request driver.
// Frame ownership is tracked in a coremap-style table; a fault with no
// free frame evicts from the tenant holding the most frames.
// Per-tenant counters and fault-service histograms land in
// Result.Run.Tenants; a nil Config.Tenants run is bit-identical to a
// pre-tenant build.
type (
	// TenantSpec describes a multi-tenant machine (Config.Tenants).
	TenantSpec = workload.TenantSpec
	// TenantSet is the per-tenant counter and fault-latency record of a
	// multi-tenant run (Run.Tenants; nil on single-tenant runs).
	TenantSet = stats.TenantSet
	// TenantCounter identifies one per-tenant event counter.
	TenantCounter = stats.TenantCounter
)

// Per-tenant counters (indexes into a TenantSet).
const (
	// TenantTouches counts page touches issued by the tenant.
	TenantTouches = stats.TenantTouches
	// TenantFaults counts the tenant's major page faults.
	TenantFaults = stats.TenantFaults
	// TenantMinorFaults counts the tenant's PSPT sibling-PTE copies.
	TenantMinorFaults = stats.TenantMinorFaults
	// TenantEvictions counts frames evicted FROM the tenant.
	TenantEvictions = stats.TenantEvictions
	// TenantEvictionsCaused counts evictions the tenant's faults forced
	// onto OTHER tenants (the cross-tenant pressure metric).
	TenantEvictionsCaused = stats.TenantEvictionsCaused
)

// DefaultTenantSpec returns a ready-to-run tenant spec: `tenants`
// address spaces of 16 pages each under Zipfian tenant selection with
// exponent zipfS, rotating the hot set every churnEvery touches per
// core (0 = no churn). Tune the returned fields before Simulate.
func DefaultTenantSpec(tenants int, zipfS float64, churnEvery int) TenantSpec {
	return workload.DefaultTenantSpec(tenants, zipfS, churnEvery)
}

// NewCMCPPolicy builds a standalone CMCP policy instance for library
// embedding (outside the simulator): host supplies core-map counts,
// capacity is the resident-mapping capacity, p the prioritized ratio.
func NewCMCPPolicy(host PolicyHost, capacity int, p float64) Policy {
	return core.New(host, capacity, core.WithP(p))
}

// NewFIFOPolicy builds a standalone FIFO policy instance.
func NewFIFOPolicy() Policy { return policy.NewFIFO() }

// NewLRUPolicy builds a standalone Linux-style LRU instance.
func NewLRUPolicy(host PolicyHost) Policy { return policy.NewLRU(host) }

// Offline trace analysis (capture a workload's access stream, replay it
// through policies, and compare them against Belady's clairvoyant
// optimum).
type (
	// Trace is a recorded page-access stream.
	Trace = trace.Trace
	// TraceRecord is one access of a Trace.
	TraceRecord = trace.Record
	// OPTResult summarizes a Belady/MIN analysis.
	OPTResult = trace.OPTResult
	// CountingPolicy is the policy slice offline fault counting needs;
	// every Policy satisfies it.
	CountingPolicy = trace.CountingPolicy
)

// CaptureTrace records the deterministic access trace of a workload at
// the given core count and seed.
func CaptureTrace(wl Workload, cores int, seed uint64) (*Trace, error) {
	layout, err := wl.Build(cores)
	if err != nil {
		return nil, err
	}
	return trace.Capture(layout, seed), nil
}

// OPTFaults computes Belady's optimal fault count for a trace at the
// given mapping capacity and page size — the lower bound no online
// policy can beat.
func OPTFaults(t *Trace, capacity int, size PageSize) (OPTResult, error) {
	return trace.OPT(t, capacity, size)
}

// CountPolicyFaults replays a trace through an online policy and
// returns its fault count (costs and TLBs ignored; comparable with
// OPTFaults).
func CountPolicyFaults(t *Trace, capacity int, size PageSize, pol CountingPolicy) (uint64, error) {
	return trace.CountFaults(t, capacity, size, pol)
}

// NewTrueLRUPolicy returns an exact-LRU counting policy for offline
// replay (perfect reference information — unattainable online).
func NewTrueLRUPolicy() CountingPolicy { return trace.NewTrueLRU() }

// ExperimentOptions control the paper-reproduction harness.
type ExperimentOptions = experiments.Options

// ExperimentReport is one regenerated table/figure.
type ExperimentReport = experiments.Report

// RunExperiment regenerates one of the paper's results — "fig6",
// "fig7", "fig8", "fig9", "fig10", "table1", "sense" — or runs the
// extension experiment "tenants" (multi-tenant policy grid; the one
// consumer of ExperimentOptions.Tenants).
func RunExperiment(id string, o ExperimentOptions) (*ExperimentReport, error) {
	return experiments.ByID(id, o)
}

// Constraint returns the per-workload memory ratio used by the Fig. 7 /
// Table 1 experiments (the paper's 50-60 %-of-native methodology).
func Constraint(workloadName string) float64 { return experiments.Constraint(workloadName) }

// Sweep infrastructure: experiment grids run through a checkpointed,
// resumable runner (internal/sweep). ExperimentOptions exposes its
// knobs (Parallelism, Repeats, Journal, Progress); a sweep given the
// journal of an interrupted one re-executes only the runs it lacks.

// SweepProgress is a thread-safe sweep progress meter; attach one via
// ExperimentOptions.Progress and poll Snapshot or String from any
// goroutine.
type SweepProgress = obs.Progress

// NewSweepProgress returns an empty progress meter.
func NewSweepProgress() *SweepProgress { return obs.NewProgress() }

// SweepKey returns the deterministic content key identifying cfg's run
// in sweep journals. A config with a custom Policy.Factory has no
// stable cross-process identity and is rejected with an error.
func SweepKey(cfg Config) (string, error) { return sweep.Key(cfg) }

// Latency histograms: set Config.Hist and the run records log₂
// distributions of page-fault service time, eviction+write-back
// latency, shootdown ack round-trip, lock-wait duration and shootdown
// fan-out into Run.Hists. Like Probe/Audit, the instrumentation is
// read-only — counters and runtimes stay bit-identical — but unlike
// them Hist is plain data: it sweeps, journals and Repeats-merges
// (replicate histograms pool rather than average, keeping the merge
// exact).
type (
	// Histogram is one fixed-bucket log₂ histogram (exact integer
	// bucket bounds, mergeable, deterministic).
	Histogram = hist.H
	// HistogramSummary is a histogram's compact rendering:
	// count/mean/max and the p50/p90/p99/p999 quantile upper bounds.
	HistogramSummary = hist.Summary
	// HistID identifies one per-run histogram in a HistSet.
	HistID = stats.HistID
	// HistSet is the fixed array of a run's histograms; Run.Hists is
	// nil unless Config.Hist was set.
	HistSet = stats.HistSet
)

// Per-run histograms (indexes into a HistSet).
const (
	// FaultServiceHist is end-to-end page-fault service time in cycles,
	// including lock waits and eviction work.
	FaultServiceHist = stats.FaultServiceHist
	// EvictionHist is the evictor-side latency of one eviction in
	// cycles: unmap and shootdown round trips (wire time excluded).
	EvictionHist = stats.EvictionHist
	// ShootdownHist is the per-target shootdown ack round-trip in
	// cycles.
	ShootdownHist = stats.ShootdownHist
	// LockWaitHist is non-zero lock/DMA-bus wait duration in cycles.
	LockWaitHist = stats.LockWaitHist
	// FanoutHist is the remote-core fan-out of shootdown broadcasts.
	FanoutHist = stats.FanoutHist
)

// HistNames returns the histogram names in HistID order (the same
// string table the JSON forms and sweep journals use).
func HistNames() []string { return stats.HistNames() }

// Observability: attach a Recorder through Config.Probe to capture a
// flight-recorder event trace and periodic time-series samples, then
// export them for offline analysis (JSONL, Perfetto, CSV).
type (
	// Recorder is the per-run flight recorder and sampler. One
	// Recorder serves one run at a time; do not share across RunMany.
	Recorder = obs.Recorder
	// RecorderConfig sizes the event ring and the sampling interval.
	RecorderConfig = obs.Config
	// TraceEvent is one flight-recorder entry.
	TraceEvent = obs.Event
	// TraceEventType identifies a kind of TraceEvent.
	TraceEventType = obs.EventType
	// TraceSample is one periodic time-series point.
	TraceSample = obs.Sample
)

// Flight-recorder event types (see the obs package for semantics).
const (
	// EvFault is a major page fault (page-in from the host).
	EvFault = obs.EvFault
	// EvMinorFault is a PSPT sibling-PTE copy fault.
	EvMinorFault = obs.EvMinorFault
	// EvEviction is a victim unmap; Arg is the remote shootdown count.
	EvEviction = obs.EvEviction
	// EvWriteBack is a dirty eviction's copy-out; Arg is bytes.
	EvWriteBack = obs.EvWriteBack
	// EvShootdown is a remote TLB invalidation; Arg is target cores.
	EvShootdown = obs.EvShootdown
	// EvScanTick is one scanner-lane policy tick; Arg is its cost.
	EvScanTick = obs.EvScanTick
	// EvPromotion is CMCP admitting a page to the priority group.
	EvPromotion = obs.EvPromotion
	// EvDemotion is CMCP draining a page back to the FIFO list.
	EvDemotion = obs.EvDemotion
	// EvLockWait is a non-zero wait on a lock or the DMA bus.
	EvLockWait = obs.EvLockWait
)

// NewRecorder builds a flight recorder to attach via Config.Probe.
func NewRecorder(cfg RecorderConfig) *Recorder { return obs.NewRecorder(cfg) }

// WriteTraceJSONLWithMeta exports recorded events as JSON Lines behind
// a metadata header carrying the recorder's drop count, from which
// cmcpsim -replay detects an overflowed ring.
func WriteTraceJSONLWithMeta(w io.Writer, events []TraceEvent, dropped uint64) error {
	return obs.WriteJSONLWithMeta(w, events, dropped)
}

// WriteChromeTrace exports events and samples as Chrome trace_event
// JSON, loadable in Perfetto or chrome://tracing (one track per core).
func WriteChromeTrace(w io.Writer, events []TraceEvent, samples []TraceSample, cores int) error {
	return obs.WriteChromeTrace(w, events, samples, cores)
}

// WriteSamplesCSV exports the sampler time series as CSV.
func WriteSamplesCSV(w io.Writer, samples []TraceSample) error {
	return obs.WriteSamplesCSV(w, samples)
}

// Invariant auditing: attach an Auditor through Config.Audit to
// cross-check the engine's four bookkeeping views (policy residency,
// page tables, device frames, TLBs) against each other every few
// thousand events; any violation fails the run.
type (
	// Auditor is the cross-module invariant auditor. One Auditor serves
	// one run at a time; do not share across RunMany.
	Auditor = check.Auditor
	// AuditorConfig sets the audit period and the violation cap.
	AuditorConfig = check.Config
	// AuditViolation is one detected invariant breach.
	AuditViolation = check.Violation
)

// NewAuditor builds an invariant auditor to attach via Config.Audit.
func NewAuditor(cfg AuditorConfig) *Auditor { return check.New(cfg) }

// Simulation-failure classes. Simulate and RunMany return errors that
// wrap one of these when the simulated kernel's bookkeeping diverges
// (for example a custom policy offering a non-resident victim, or no
// victim at all while device memory is exhausted); match them with
// errors.Is.
var (
	// ErrNoVictim: device memory exhausted and the policy had no victim.
	ErrNoVictim = vm.ErrNoVictim
	// ErrBadVictim: the policy offered a victim that is not resident.
	ErrBadVictim = vm.ErrBadVictim
	// ErrMapFailed: installing a translation failed (overlapping or
	// misaligned mapping).
	ErrMapFailed = vm.ErrMapFailed
	// ErrCorruption: the Config.Verify content checker found a page
	// whose content does not match what the program stored to it.
	ErrCorruption = vm.ErrCorruption
)
