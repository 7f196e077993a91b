package experiments

import (
	"fmt"

	"cmcp/internal/machine"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
)

// Fig10 reproduces Figure 10: the impact of the page size (4 kB, 64 kB,
// 2 MB) on relative performance as the memory constraint grows (PSPT +
// FIFO, max cores, C-class / big footprints).
//
// Expected shapes: with mild constraint large pages win (fewer TLB
// misses); as the constraint grows the cost of moving more data per
// fault and of broader sharing per page flips the order — first 64 kB
// and then 4 kB become best for BT and LU, while CG and SCALE keep
// 64 kB ahead of 4 kB deeper into the constraint range. All series are
// normalized to the 4 kB no-data-movement runtime, so the large pages'
// TLB advantage is visible above 1.0 at full memory.
func Fig10(o Options) (*Report, error) {
	if err := o.rejectTenants("fig10"); err != nil {
		return nil, err
	}
	cores := o.maxCores()
	rep := &Report{
		ID:    "fig10",
		Title: fmt.Sprintf("Relative performance vs memory constraint by page size (PSPT+FIFO, %d cores, C class)", cores),
	}
	sizes := []sim.PageSize{sim.Size4k, sim.Size64k, sim.Size2M}
	ratios := o.pageSizeRatios()

	for _, spec := range o.apps() {
		// C class: ~2.5x the B footprint (the paper uses C class and a
		// 1.2 GB SCALE for this study).
		big := spec.Scale(2.5)
		big.Name = cClassName(spec.Name)
		var cfgs []machine.Config
		for _, size := range sizes {
			for _, r := range ratios {
				cfg := o.baseConfig(big, cores)
				cfg.PageSize = size
				cfg.MemoryRatio = r
				cfgs = append(cfgs, cfg)
			}
		}
		results, err := o.run(cfgs)
		if err != nil {
			return nil, err
		}
		tab := &stats.Table{Title: fmt.Sprintf("Fig10 %s: relative performance by page size", big.Name)}
		for _, size := range sizes {
			tab.Columns = append(tab.Columns, size.String())
		}
		base := results[0].Runtime // 4 kB at 100% memory
		for ri, r := range ratios {
			cells := make([]any, len(sizes))
			for si := range sizes {
				rt := results[si*len(ratios)+ri].Runtime
				cells[si] = fmt.Sprintf("%.2f", float64(base)/float64(rt))
			}
			tab.AddRow(fmt.Sprintf("%.0f%% memory", r*100), cells...)
		}
		rep.Tables = append(rep.Tables, tab)
	}
	return rep, nil
}

// cClassName maps the B-class label to the page-size study's label.
func cClassName(name string) string {
	switch name {
	case "bt.B":
		return "bt.C"
	case "lu.B":
		return "lu.C"
	case "cg.B":
		return "cg.C"
	case "SCALE":
		return "SCALE (big)"
	default:
		return name + " (big)"
	}
}
