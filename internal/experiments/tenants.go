package experiments

import (
	"fmt"

	"cmcp/internal/machine"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

// TenantGrid is the multi-tenant extension experiment (not a paper
// figure): one serving-shaped tenant workload run under each
// replacement policy, reporting runtime, aggregate fault counts, and
// Jain's fairness index over per-tenant p99 fault latencies. It is the
// one experiment that consumes Options.Tenants — cmcpsim threads
// -tenants/-zipf-s/-churn here, where the paper-figure experiments
// reject the spec loudly (they model a single HPC application).
func TenantGrid(o Options) (*Report, error) {
	spec := o.Tenants
	if spec == nil {
		def := workload.DefaultTenantSpec(16, 1.1, 0)
		spec = &def
	}
	cores := 16
	if o.Quick {
		cores = 4
	}
	policies := []machine.PolicySpec{
		{Kind: machine.FIFO},
		{Kind: machine.CLOCK},
		{Kind: machine.LRU},
		{Kind: machine.CMCP, P: 0.5},
	}
	var cfgs []machine.Config
	for _, pol := range policies {
		cfgs = append(cfgs, machine.Config{
			Cores:       cores,
			Tenants:     spec,
			MemoryRatio: 0.5,
			PageSize:    sim.Size4k,
			Tables:      vm.PSPTKind,
			Policy:      pol,
			Seed:        o.Seed,
		})
	}
	results, err := o.run(cfgs)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "tenants",
		Title: fmt.Sprintf("Multi-tenant extension: %d tenants, Zipf s=%.2f, churn %d (%d cores)", spec.Tenants, spec.ZipfS, spec.ChurnEvery, cores),
	}
	tab := &stats.Table{
		Title:   fmt.Sprintf("TenantGrid %s: policy comparison on one contended frame pool", spec.Name()),
		Columns: []string{"runtime (Mcyc)", "page faults", "minor faults", "evictions", "fairness (Jain p99)"},
	}
	for i, pol := range policies {
		r := results[i]
		fairness := "n/a"
		if ts := r.Run.Tenants; ts != nil {
			fairness = fmt.Sprintf("%.3f", ts.FairnessIndex())
		}
		tab.AddRow(pol.Kind.String(),
			fmt.Sprintf("%.1f", float64(r.Runtime)/1e6),
			r.Run.Total(stats.PageFaults),
			r.Run.Total(stats.MinorFaults),
			r.Run.Total(stats.Evictions),
			fairness)
	}
	rep.Tables = append(rep.Tables, tab)
	return rep, nil
}
