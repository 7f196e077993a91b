// Package experiments regenerates every table and figure of the
// paper's evaluation (§5): the page-sharing distributions (Fig. 6),
// the policy/page-table scalability comparison (Fig. 7), the memory-
// constraint sensitivity (Fig. 8), the per-core event counts (Table 1),
// the CMCP ratio sweep (Fig. 9), and the page-size study (Fig. 10).
//
// Each runner assembles machine.Configs, executes them (concurrently
// when the host allows), and renders the same rows/series the paper
// reports. Absolute cycle counts differ from the Xeon Phi testbed; the
// reproduction targets are the shapes — who wins, by what factor, and
// where the crossovers fall. EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"fmt"
	"strings"

	"cmcp/internal/machine"
	"cmcp/internal/obs"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/sweep"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

// Options control an experiment run.
type Options struct {
	// Scale multiplies workload footprints and work (1.0 = the scaled
	// B-class defaults; use <1 for quicker runs). Zero means 1.0.
	Scale float64
	// Quick shrinks the sweep itself: fewer core counts and ratio
	// points. Used by tests and -quick CLI runs.
	Quick bool
	// Seed drives all randomness.
	Seed uint64
	// Parallelism caps concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Repeats replicates every run with seeds Seed..Seed+Repeats-1 and
	// averages the results, tightening the scaled-down runs' noise
	// (0 or 1 = single run). The replication and averaging are the
	// sweep runner's deterministic merge step (internal/sweep).
	Repeats int
	// Journal checkpoints every completed run to a JSONL file and
	// resumes from it on restart; see sweep.Options.Journal.
	Journal string
	// Progress, when non-nil, observes sweep planning and completion
	// (runs done/total, runs/s, ETA).
	Progress *obs.Progress
	// Hist attaches latency/fan-out histograms to every generated run
	// config (machine.Config.Hist). Read-only instrumentation: counters
	// and runtimes are bit-identical either way.
	Hist bool
	// Tenants, when non-nil, selects the multi-tenant serving workload
	// for experiments that support it (TenantGrid). The paper-figure
	// experiments model one HPC application per machine and reject a
	// tenant spec loudly — cmcpsim used to silently drop -tenants under
	// -exp.
	Tenants *workload.TenantSpec
}

// rejectTenants errors when a tenant spec was supplied to an experiment
// that models a single HPC application — the loud-failure half of the
// "-tenants under -exp" contract (TenantGrid is the experiment that
// accepts the spec).
func (o Options) rejectTenants(id string) error {
	if o.Tenants != nil {
		return fmt.Errorf("experiments: %s models a single application and ignores tenant specs; use the \"tenants\" experiment for multi-tenant grids", id)
	}
	return nil
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1.0
	}
	return o.Scale
}

// coreCounts returns the X axis of the scalability experiments: the
// paper sweeps 8..56 cores in steps of 8.
func (o Options) coreCounts() []int {
	if o.Quick {
		return []int{4, 8}
	}
	return []int{8, 16, 24, 32, 40, 48, 56}
}

// memoryRatios is the X axis of Fig. 8 and Fig. 10.
func (o Options) memoryRatios() []float64 {
	if o.Quick {
		return []float64{1.0, 0.5}
	}
	return []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.25}
}

// pageSizeRatios is the X axis of Fig. 10: denser near 100 % because
// the large-page crossovers live there.
func (o Options) pageSizeRatios() []float64 {
	if o.Quick {
		return []float64{1.0, 0.5}
	}
	return []float64{1.0, 0.98, 0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3}
}

// pRatios is the X axis of Fig. 9.
func (o Options) pRatios() []float64 {
	if o.Quick {
		return []float64{0, 0.5, 1}
	}
	return []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0}
}

// maxCores returns the largest swept core count (the paper's 56).
func (o Options) maxCores() int {
	cc := o.coreCounts()
	return cc[len(cc)-1]
}

// Constraint returns the per-workload memory ratio used by Fig. 7 and
// Table 1. The paper's methodology (§5.3) sets the constraint so that
// PSPT+FIFO lands at 50-60 % relative performance; on the authors'
// testbed that needed 64 % (BT), 66 % (LU), 37 % (CG) and ~50 %
// (SCALE). Our substrate's Fig. 8 curves put the same 50-60 % band at
// slightly different ratios, so we follow the methodology rather than
// the testbed percentages (EXPERIMENTS.md records both).
func Constraint(name string) float64 {
	switch {
	case strings.HasPrefix(name, "bt"):
		return 0.62
	case strings.HasPrefix(name, "lu"):
		return 0.70
	case strings.HasPrefix(name, "cg"):
		return 0.38
	case strings.HasPrefix(name, "SCALE"):
		return 0.55
	default:
		return 0.5
	}
}

// apps returns the workloads at the option scale.
func (o Options) apps() []workload.Spec {
	specs := workload.Apps()
	out := make([]workload.Spec, len(specs))
	for i, s := range specs {
		out[i] = s.Scale(o.scale())
	}
	return out
}

// baseConfig is the common run shape: PSPT, 4 kB pages, FIFO.
func (o Options) baseConfig(spec workload.Spec, cores int) machine.Config {
	return machine.Config{
		Cores:       cores,
		Workload:    spec,
		MemoryRatio: Constraint(spec.Name),
		PageSize:    sim.Size4k,
		Tables:      vm.PSPTKind,
		Policy:      machine.PolicySpec{Kind: machine.FIFO, P: -1},
		Seed:        o.Seed,
	}
}

// Report is one experiment's rendered output.
type Report struct {
	ID     string // "fig6", "table1", ...
	Title  string
	Tables []*stats.Table
}

// String renders all tables as text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders all tables as concatenated CSV sections.
func (r *Report) CSV() string {
	var b strings.Builder
	for _, t := range r.Tables {
		fmt.Fprintf(&b, "# %s\n", t.Title)
		b.WriteString(t.CSV())
		b.WriteByte('\n')
	}
	return b.String()
}

// run executes one batch of configs through the sweep runner, which
// handles parallel execution (machine.RunMany), the journal checkpoint/
// resume cycle, and Repeats seed-replication with deterministic
// averaging. On success every grid point has its result.
func (o Options) run(cfgs []machine.Config) ([]*machine.Result, error) {
	if o.Hist {
		for i := range cfgs {
			cfgs[i].Hist = true
		}
	}
	out, err := sweep.Run(cfgs, sweep.Options{
		Journal:     o.Journal,
		Parallelism: o.Parallelism,
		Repeats:     o.Repeats,
		Progress:    o.Progress,
	})
	if err != nil {
		return nil, err
	}
	return out.Results, nil
}

// All runs every experiment in paper order (the paper figures; the
// extension experiment "tenants" runs only by ID).
func All(o Options) ([]*Report, error) {
	if err := o.rejectTenants("all"); err != nil {
		return nil, err
	}
	var reports []*Report
	for _, f := range []func(Options) (*Report, error){Fig6, Fig8, Fig7, Table1, Fig9, Fig10, Sensitivity} {
		r, err := f(o)
		if err != nil {
			return nil, err
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// ByID runs a single experiment by identifier.
func ByID(id string, o Options) (*Report, error) {
	switch strings.ToLower(id) {
	case "fig6":
		return Fig6(o)
	case "fig7":
		return Fig7(o)
	case "fig8":
		return Fig8(o)
	case "fig9":
		return Fig9(o)
	case "fig10":
		return Fig10(o)
	case "table1":
		return Table1(o)
	case "sense", "sensitivity":
		return Sensitivity(o)
	case "tenants":
		return TenantGrid(o)
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (fig6..fig10, table1, sense, tenants)", id)
	}
}
