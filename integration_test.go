package cmcp_test

import (
	"testing"

	"cmcp"
)

// TestPaperHeadlineOrdering verifies the paper's central result
// end-to-end at a moderate scale: for every workload under its Fig. 7
// memory constraint, CMCP (at the per-workload p) outperforms FIFO, and
// FIFO outperforms the scanning LRU approximation.
func TestPaperHeadlineOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const cores = 24
	ps := map[string]float64{"bt.B": 0.5, "lu.B": 0.625, "cg.B": 0.25, "SCALE": 0.875}
	for _, wl := range cmcp.Workloads() {
		spec := wl.Scale(0.08)
		mk := func(pol cmcp.PolicySpec) cmcp.Config {
			return cmcp.Config{
				Cores:       cores,
				Workload:    spec,
				MemoryRatio: cmcp.Constraint(spec.Name),
				Tables:      cmcp.PSPT,
				Policy:      pol,
				Seed:        11,
				Verify:      true,
			}
		}
		results, err := cmcp.RunMany([]cmcp.Config{
			mk(cmcp.PolicySpec{Kind: cmcp.CMCP, P: ps[spec.Name]}),
			mk(cmcp.PolicySpec{Kind: cmcp.FIFO}),
			mk(cmcp.PolicySpec{Kind: cmcp.LRU}),
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		cm, fifo, lru := results[0], results[1], results[2]
		if cm.Runtime >= fifo.Runtime {
			t.Errorf("%s: CMCP (%d) must beat FIFO (%d)", spec.Name, cm.Runtime, fifo.Runtime)
		}
		if lru.Runtime <= fifo.Runtime {
			t.Errorf("%s: LRU (%d) must lose to FIFO (%d)", spec.Name, lru.Runtime, fifo.Runtime)
		}
		// Table 1 relationships.
		if lru.Run.Total(cmcp.PageFaults) >= fifo.Run.Total(cmcp.PageFaults) {
			t.Errorf("%s: LRU faults must be below FIFO's", spec.Name)
		}
		if lru.Run.Total(cmcp.RemoteTLBInvalidations) <= fifo.Run.Total(cmcp.RemoteTLBInvalidations) {
			t.Errorf("%s: LRU remote invalidations must exceed FIFO's", spec.Name)
		}
		if cm.Run.Total(cmcp.RemoteTLBInvalidations) >= fifo.Run.Total(cmcp.RemoteTLBInvalidations) {
			t.Errorf("%s: CMCP remote invalidations must be the lowest", spec.Name)
		}
	}
}

// TestRegularPTScalingCollapse verifies the PSPT substrate claim:
// adding cores helps PSPT but stops helping regular page tables.
func TestRegularPTScalingCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	spec := cmcp.BT().Scale(0.08)
	mk := func(cores int, tables cmcp.TableKind) cmcp.Config {
		return cmcp.Config{
			Cores:       cores,
			Workload:    spec,
			MemoryRatio: cmcp.Constraint(spec.Name),
			Tables:      tables,
			Policy:      cmcp.PolicySpec{Kind: cmcp.FIFO},
			Seed:        5,
		}
	}
	results, err := cmcp.RunMany([]cmcp.Config{
		mk(8, cmcp.PSPT), mk(56, cmcp.PSPT),
		mk(8, cmcp.RegularPT), mk(56, cmcp.RegularPT),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	psptSpeedup := float64(results[0].Runtime) / float64(results[1].Runtime)
	regSpeedup := float64(results[2].Runtime) / float64(results[3].Runtime)
	if psptSpeedup < 3 {
		t.Errorf("PSPT 8->56 core speedup = %.2fx, want >3x", psptSpeedup)
	}
	if regSpeedup > psptSpeedup/1.5 {
		t.Errorf("regular PT speedup %.2fx too close to PSPT %.2fx — the collapse is the point",
			regSpeedup, psptSpeedup)
	}
}
