package machine

import (
	"runtime"
	"testing"

	"cmcp/internal/stats"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

// TestBarrierRestartsTenantHistograms pins what the warm-up barrier
// does to the tenant fault histograms now that the rebase snapshots
// counters only: every successful fault records one sample for its
// tenant, so after the barrier each tenant's histogram holds exactly as
// many samples as its rebased fault counters count. Samples left over
// from the warm-up, which faults every page in, would break the
// equality. (The golden tests pin the same for Run.Hists.)
func TestBarrierRestartsTenantHistograms(t *testing.T) {
	res, err := Simulate(tenantConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	ts := res.Run.Tenants
	var total uint64
	for i := 0; i < ts.Tenants(); i++ {
		faults := ts.Get(i, stats.TenantFaults) + ts.Get(i, stats.TenantMinorFaults)
		if got := ts.FaultHist(i).Count; got != faults {
			t.Errorf("tenant %d: fault histogram holds %d samples, the measured phase faulted %d times", i, got, faults)
		}
		total += faults
	}
	if total == 0 {
		t.Fatal("the measured phase never faulted, so the check above is vacuous")
	}
}

// allocBudgetConfigs are the benchmark's four workloads at a size a
// unit test affords: the same tables, policies, ratios and tenant
// driver, on 16 cores and a tenth of the footprint.
func allocBudgetConfigs() map[string][]Config {
	tenants := workload.DefaultTenantSpec(128, 1.1, 250)
	tenants.TotalTouches = 256_000
	var scan []Config
	for _, k := range []PolicyKind{LRU, LFU, CLOCK} {
		scan = append(scan, Config{Cores: 16, Workload: workload.BT().Scale(0.1), Tables: vm.PSPTKind, MemoryRatio: 0.62, Policy: PolicySpec{Kind: k}, Seed: 1})
	}
	return map[string][]Config{
		"hits": {{Cores: 16, Workload: workload.SCALE().Scale(0.1), Tables: vm.PSPTKind, MemoryRatio: 0.55,
			Policy: PolicySpec{Kind: CMCP, P: 0.875}, Seed: 1}},
		"scan": scan,
		"faults": {{Cores: 16, Workload: workload.CG().Scale(0.1), Tables: vm.RegularPT, MemoryRatio: 0.38,
			Policy: PolicySpec{Kind: FIFO}, Seed: 1}},
		"tenants": {{Cores: 16, Tenants: &tenants, Tables: vm.PSPTKind, MemoryRatio: 0.5,
			Policy: PolicySpec{Kind: CMCP, P: -1}, Seed: 1}},
	}
}

// allocBudget is one workload's ceiling on a Simulate call (summed
// over the workload's configs): about 10 % above the allocations and 5 %
// above the bytes measured when it was set (hits 162 / 610,040 B, scan
// 553 / 2,176,160 B, faults 68 / 183,736 B, tenants 1,386 / 814,768 B
// with go1.24 on linux/amd64; -race adds a few allocations on tenants).
// Before per-run structures were allocated once at their final size
// the same calls took 559 / 750,784 B, 1,659 / 2,707,544 B, 437 /
// 242,328 B and 1,713 / 908,752 B, over every ceiling.
var allocBudget = map[string]struct{ allocs, bytes uint64 }{
	"hits":    {180, 640_000},
	"scan":    {610, 2_285_000},
	"faults":  {75, 193_000},
	"tenants": {1_525, 855_000},
}

// TestSimulateAllocBudget pins ceilings on what one Simulate allocates,
// measured as the benchmark's alloc_mb_per_run and allocs_per_run are:
// runtime.MemStats around a single call. Allocation is deterministic
// for a given Go toolchain, so a ceiling only moves when the code does;
// a toolchain upgrade that shifts the figures re-measures them here.
func TestSimulateAllocBudget(t *testing.T) {
	for name, cfgs := range allocBudgetConfigs() {
		var allocs, bytes uint64
		for _, cfg := range cfgs {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			if _, err := Simulate(cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			allocs += m1.Mallocs - m0.Mallocs
			bytes += m1.TotalAlloc - m0.TotalAlloc
		}
		budget := allocBudget[name]
		if allocs > budget.allocs {
			t.Errorf("%s: %d allocations per Simulate, ceiling %d", name, allocs, budget.allocs)
		}
		if bytes > budget.bytes {
			t.Errorf("%s: %d bytes allocated per Simulate, ceiling %d", name, bytes, budget.bytes)
		}
	}
}
