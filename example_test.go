package cmcp_test

import (
	"fmt"
	"log"

	"cmcp"
)

// ExampleSimulate runs the paper's headline comparison on a small
// configuration: CMCP versus FIFO on the SCALE stencil with half the
// footprint resident.
func ExampleSimulate() {
	base := cmcp.Config{
		Cores:       8,
		Workload:    cmcp.SCALE().Scale(0.05),
		MemoryRatio: 0.5,
		Tables:      cmcp.PSPT,
		Seed:        1,
	}
	fifo := base
	fifo.Policy = cmcp.PolicySpec{Kind: cmcp.FIFO}
	cm := base
	cm.Policy = cmcp.PolicySpec{Kind: cmcp.CMCP, P: 0.875}

	rf, err := cmcp.Simulate(fifo)
	if err != nil {
		log.Fatal(err)
	}
	rc, err := cmcp.Simulate(cm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("CMCP faster than FIFO:", rc.Runtime < rf.Runtime)
	fmt.Println("CMCP fewer remote TLB invalidations:",
		rc.Run.Total(cmcp.RemoteTLBInvalidations) < rf.Run.Total(cmcp.RemoteTLBInvalidations))
	// Output:
	// CMCP faster than FIFO: true
	// CMCP fewer remote TLB invalidations: true
}

// ExampleSimulate_regularPT shows the page-table comparison: regular
// shared tables broadcast every shootdown, PSPT hits only the mapping
// cores.
func ExampleSimulate_regularPT() {
	base := cmcp.Config{
		Cores:       8,
		Workload:    cmcp.CG().Scale(0.05),
		MemoryRatio: 0.4,
		Policy:      cmcp.PolicySpec{Kind: cmcp.FIFO},
		Seed:        2,
	}
	regular := base
	regular.Tables = cmcp.RegularPT
	pspt := base
	pspt.Tables = cmcp.PSPT

	rr, err := cmcp.Simulate(regular)
	if err != nil {
		log.Fatal(err)
	}
	rp, err := cmcp.Simulate(pspt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("PSPT fewer invalidations:",
		rp.Run.Total(cmcp.RemoteTLBInvalidations) < rr.Run.Total(cmcp.RemoteTLBInvalidations))
	fmt.Println("regular tables expose a sharing histogram:", rr.Sharing != nil)
	fmt.Println("PSPT exposes a sharing histogram:", rp.Sharing != nil)
	// Output:
	// PSPT fewer invalidations: true
	// regular tables expose a sharing histogram: false
	// PSPT exposes a sharing histogram: true
}

// ExampleBT shrinks a paper workload for quick runs.
func ExampleBT() {
	wl := cmcp.BT()
	small := wl.Scale(0.25)
	fmt.Println(small.Pages < wl.Pages, small.TotalTouches < wl.TotalTouches)
	// Output:
	// true true
}
