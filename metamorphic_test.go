package cmcp_test

import (
	"fmt"
	"strings"
	"testing"

	"cmcp"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/workload"
)

// TestMetamorphicRelations runs pairs of configs that the paper's own
// semantics say describe the same machine, and requires equal Results:
// every counter of every core (the scanner pseudo-core included), every
// core's Finish and the runtime, compared exactly. A relation needs no
// second implementation, only two Simulate calls, so it guards engine
// rewrites that the goldens would merely flag as "changed".
func TestMetamorphicRelations(t *testing.T) {
	fifo := cmcp.PolicySpec{Kind: cmcp.FIFO}
	rows := []struct {
		name  string
		rests string // the PAPER.md or DESIGN.md sentence the relation rests on
		left  []cmcp.Config
		twin  func(cmcp.Config) cmcp.Config
		// private runs the row on core-private pages instead of the
		// three paper workloads and requires every core-map count to be
		// 1 on the left side.
		private bool
	}{
		{
			name: "M1 CMCP p=0 is FIFO",
			rests: "PAPER.md §1: CMCP is \"split into a FIFO group and a priority group with ratio parameter p\"; " +
				"DESIGN.md §5: a page \"enters priority group if it beats the current minimum and the group is below p·frames, else FIFO group\", " +
				"and the victim is the \"FIFO head, else priority minimum\". At p = 0 the priority group stays empty.",
			left: []cmcp.Config{
				{Cores: 4, Tables: cmcp.PSPT, Policy: fifo},
				{Cores: 4, Tables: cmcp.RegularPT, Policy: fifo},
			},
			twin: func(c cmcp.Config) cmcp.Config {
				c.Policy = cmcp.PolicySpec{Kind: cmcp.CMCP, P: 0}
				return c
			},
		},
		{
			name: "M2 one core: PSPT is regular tables",
			rests: "PAPER.md §1: under PSPT \"(a) the set of cores mapping a page is known exactly, " +
				"(b) TLB shootdowns on unmap go only to mapping cores, (c) page-table locking is per-page/per-core " +
				"rather than address-space wide\". On one core every mapping set is that core, " +
				"no shootdown is remote and no lock is contended, so the two organizations do the same work.",
			left: []cmcp.Config{
				{Cores: 1, Tables: cmcp.PSPT, Policy: fifo},
				{Cores: 1, Tables: cmcp.PSPT, Policy: cmcp.PolicySpec{Kind: cmcp.LRU}},
				{Cores: 1, Tables: cmcp.PSPT, Policy: cmcp.PolicySpec{Kind: cmcp.CMCP, P: 0.5}},
				{Cores: 1, Tables: cmcp.PSPT, Policy: cmcp.PolicySpec{Kind: cmcp.CLOCK}},
				{Cores: 1, Tables: cmcp.PSPT, Policy: cmcp.PolicySpec{Kind: cmcp.LFU}},
				{Cores: 1, Tables: cmcp.PSPT, Policy: cmcp.PolicySpec{Kind: cmcp.Random}},
			},
			twin: func(c cmcp.Config) cmcp.Config {
				c.Tables = cmcp.RegularPT
				return c
			},
		},
		{
			name: "M3 CMCP p=1 is FIFO when every core-map count is 1",
			rests: "DESIGN.md §5: a page \"enters priority group if it beats the current minimum and the group is below p·frames\", " +
				"the victim is the \"FIFO head, else priority minimum\", and CMCP's heap orders by (key, seq). At p = 1 every " +
				"page enters the priority group; with every core-map count 1 the keys tie, so seq, the insertion order, picks the victim.",
			left: []cmcp.Config{
				{Cores: 1, Tables: cmcp.PSPT, Policy: fifo},
				{Cores: 8, Tables: cmcp.PSPT, Policy: fifo},
			},
			twin: func(c cmcp.Config) cmcp.Config {
				c.Policy = cmcp.PolicySpec{Kind: cmcp.CMCP, P: 1}
				return c
			},
			private: true,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, size := range []cmcp.PageSize{cmcp.Size4k, cmcp.Size64k, cmcp.Size2M} {
				var wls []workload.Spec
				for _, name := range []string{"cg.B", "bt.B", "SCALE"} {
					wl, _ := cmcp.WorkloadByName(name)
					wls = append(wls, shortWorkload(wl, size))
				}
				if row.private {
					// Sixteen 2 MB mappings, two per core at 8 cores.
					wls = []workload.Spec{workload.Private(16*512, 16_000)}
				}
				for _, wl := range wls {
					for _, left := range row.left {
						left.Workload = wl
						left.PageSize = size
						left.MemoryRatio = 0.75
						left.Seed = 3
						right := row.twin(left)
						id := fmt.Sprintf("%s %s %d cores %v %s", wl.Name, size, left.Cores, left.Tables, left.Policy.Kind)
						a, err := cmcp.Simulate(left)
						if err != nil {
							t.Fatalf("%s: %v", id, err)
						}
						b, err := cmcp.Simulate(right)
						if err != nil {
							t.Fatalf("%s twin: %v", id, err)
						}
						if a.Run.Total(cmcp.Evictions) == 0 {
							t.Errorf("%s never evicts, so the relation shows nothing", id)
						}
						if row.private {
							for count, pages := range a.Sharing {
								if count > 1 && pages != 0 {
									t.Errorf("%s: %d pages have core-map count %d, so the relation does not apply", id, pages, count)
								}
							}
						}
						if diffs := resultDiffs(a, b); len(diffs) > 0 {
							n := len(diffs)
							if n > 4 {
								diffs = append(diffs[:4], "...")
							}
							t.Errorf("%s: %d differences: %s\n\trelation rests on %s", id, n, strings.Join(diffs, "; "), row.rests)
						}
					}
				}
			}
		})
	}
}

// shortWorkload shrinks a paper workload for tier-1: the touches to
// 1/100, the footprint to 1/50, or to 1/10 under 2 MB pages so that it
// still spans four or more mappings.
func shortWorkload(wl workload.Spec, size cmcp.PageSize) workload.Spec {
	f := 0.02
	if size == cmcp.Size2M {
		f = 0.1
	}
	s := wl.Scale(f)
	s.TotalTouches = wl.Scale(0.01).TotalTouches
	return s
}

// resultDiffs lists every counter, Finish and runtime on which two
// results differ.
func resultDiffs(a, b *cmcp.Result) []string {
	var diffs []string
	if a.Runtime != b.Runtime {
		diffs = append(diffs, fmt.Sprintf("runtime %d != %d", a.Runtime, b.Runtime))
	}
	if a.Run.Cores != b.Run.Cores {
		return append(diffs, fmt.Sprintf("cores %d != %d", a.Run.Cores, b.Run.Cores))
	}
	names := stats.CounterNames()
	for c := 0; c <= a.Run.Cores; c++ { // row Cores is the scanner
		core := sim.CoreID(c)
		if a.Run.Finish[c] != b.Run.Finish[c] {
			diffs = append(diffs, fmt.Sprintf("core %d finish %d != %d", c, a.Run.Finish[c], b.Run.Finish[c]))
		}
		for i, name := range names {
			if x, y := a.Run.Get(core, stats.Counter(i)), b.Run.Get(core, stats.Counter(i)); x != y {
				diffs = append(diffs, fmt.Sprintf("core %d %s %d != %d", c, name, x, y))
			}
		}
	}
	return diffs
}
