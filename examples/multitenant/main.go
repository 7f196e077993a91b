// Multitenant pits CMCP against LRU and FIFO on a contended machine:
// 64 tenant address spaces share a frame pool sized to half their
// aggregate footprint while a Zipfian request driver concentrates
// traffic on a rotating hot set of tenants. Beyond the usual runtime
// and fault counts, multi-tenant runs report per-tenant tails — the
// p99 fault-service latency each tenant experiences — and Jain's
// fairness index over those tails, so the comparison answers the
// serving-fleet question: who keeps the slowest tenant fast?
//
// A fault that finds no free frame evicts from the tenant holding the
// most frames, and that tenant's policy picks the page, so the
// policies decide which pages go.
package main

import (
	"fmt"
	"log"

	"cmcp"
)

func main() {
	const cores = 16
	spec := cmcp.DefaultTenantSpec(64, 1.2, 250) // 64 tenants, Zipf s=1.2, churn every 250 touches/core
	spec.TotalTouches = 96_000
	spec.DiurnalEvery = 3000 // alternate peak/trough skew phases

	policies := []cmcp.PolicySpec{
		{Kind: cmcp.CMCP, P: -1},
		{Kind: cmcp.LRU},
		{Kind: cmcp.FIFO},
	}
	var cfgs []cmcp.Config
	for _, pol := range policies {
		cfgs = append(cfgs, cmcp.Config{
			Cores:       cores,
			Tenants:     &spec,
			MemoryRatio: 0.5, // frames cover half the aggregate footprint
			Tables:      cmcp.PSPT,
			Policy:      pol,
			Seed:        7,
		})
	}
	results, err := cmcp.RunMany(cfgs, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: %d tenants on %d cores, %d frames for %d pages\n\n",
		spec.Name(), spec.Tenants, cores, results[0].Frames, results[0].TotalPages)
	fmt.Printf("%-7s %10s %13s %10s %14s %14s\n",
		"policy", "Mcycles", "faults/core", "fairness", "worst p99(cyc)", "cross-evicts")
	for _, res := range results {
		ts := res.Run.Tenants
		var worstP99 uint64
		for t := 0; t < ts.Tenants(); t++ {
			if p := ts.FaultHist(t).Summarize().P99; p > worstP99 {
				worstP99 = p
			}
		}
		fmt.Printf("%-7s %10.1f %13.0f %10.3f %14d %14d\n",
			res.PolicyName,
			float64(res.Runtime)/1e6,
			res.Run.PerCoreAvg(cmcp.PageFaults),
			ts.FairnessIndex(),
			worstP99,
			ts.Total(cmcp.TenantEvictionsCaused))
	}
	fmt.Println("\nfairness = Jain's index over per-tenant p99 fault-service latency (1.0 = perfectly even tails)")
	fmt.Println("cross-evicts = evictions a tenant's faults forced onto other tenants' frames")
}
