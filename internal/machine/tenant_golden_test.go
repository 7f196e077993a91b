package machine

import (
	"testing"

	"cmcp/internal/sim"
	"cmcp/internal/stats"
)

// tenantGoldenRun pins one multi-tenant run: runtime, resident count,
// every machine counter (Total per counter, index order) and every
// per-tenant counter (one row per tenant, stats.TenantCounter order).
type tenantGoldenRun struct {
	Runtime  sim.Cycles
	Resident int
	Counters [stats.NumCounters]uint64
	Tenants  [][stats.NumTenantCounters]uint64
}

// tenantGoldenRuns was captured on tenantConfig(32): 32 uniform-share
// tenants with churn and a diurnal phase on PSPT, under CMCP and LRU.
// Like goldenRuns, re-capture it only with a deliberate behaviour
// change and say why.
var tenantGoldenRuns = map[string]tenantGoldenRun{
	"CMCP": {
		Runtime: 5982614, Resident: 256,
		Counters: [stats.NumCounters]uint64{576, 609, 674, 674, 1206, 21, 1185, 576, 416, 2359296, 1703936, 710378, 0, 12800},
		Tenants: [][stats.NumTenantCounters]uint64{
			{552, 28, 27, 28, 23}, {736, 28, 34, 28, 21}, {976, 42, 37, 42, 37}, {1112, 60, 37, 60, 40},
			{1056, 53, 51, 53, 37}, {1200, 57, 54, 57, 46}, {1000, 36, 45, 36, 34}, {1184, 54, 39, 54, 46},
			{680, 33, 29, 33, 32}, {560, 28, 25, 27, 25}, {448, 22, 26, 22, 20}, {280, 10, 17, 10, 9},
			{288, 15, 15, 15, 14}, {248, 13, 11, 13, 13}, {240, 10, 14, 10, 9}, {216, 11, 13, 12, 11},
			{160, 10, 8, 10, 9}, {240, 5, 15, 5, 5}, {104, 5, 7, 5, 5}, {136, 6, 7, 6, 6},
			{120, 3, 11, 3, 3}, {168, 6, 11, 6, 6}, {88, 5, 6, 5, 5}, {120, 4, 10, 4, 4},
			{160, 3, 13, 3, 3}, {96, 6, 4, 6, 6}, {136, 5, 10, 5, 5}, {160, 6, 11, 6, 6},
			{88, 1, 8, 1, 1}, {72, 4, 4, 4, 4}, {96, 4, 6, 4, 4}, {80, 3, 4, 3, 3},
		},
	},
	"LRU": {
		Runtime: 9089292, Resident: 256,
		Counters: [stats.NumCounters]uint64{648, 640, 3523, 893, 2641, 0, 2641, 648, 411, 2654208, 1683456, 588877, 0, 12800},
		Tenants: [][stats.NumTenantCounters]uint64{
			{552, 29, 29, 29, 25}, {736, 34, 40, 34, 28}, {976, 50, 47, 50, 42}, {1112, 46, 53, 46, 41},
			{1056, 50, 45, 50, 41}, {1200, 60, 68, 60, 48}, {1000, 36, 54, 36, 31}, {1184, 64, 44, 64, 55},
			{680, 36, 37, 36, 36}, {560, 34, 27, 34, 33}, {448, 27, 21, 27, 27}, {280, 12, 16, 12, 12},
			{288, 15, 15, 15, 14}, {248, 15, 10, 15, 15}, {240, 11, 13, 11, 11}, {216, 14, 12, 14, 14},
			{160, 9, 10, 9, 9}, {240, 8, 13, 8, 8}, {104, 6, 5, 6, 6}, {136, 10, 5, 10, 10},
			{120, 5, 8, 5, 5}, {168, 9, 9, 8, 9}, {88, 9, 2, 9, 9}, {120, 7, 8, 7, 7},
			{160, 6, 10, 6, 6}, {96, 7, 3, 7, 7}, {136, 8, 9, 8, 8}, {160, 10, 9, 10, 10},
			{88, 4, 6, 4, 4}, {72, 7, 2, 7, 7}, {96, 5, 6, 5, 5}, {80, 5, 4, 6, 5},
		},
	},
}

func tenantGoldenVariants() map[string]Config {
	vs := make(map[string]Config)
	for _, k := range []PolicyKind{CMCP, LRU} {
		cfg := tenantConfig(32)
		cfg.Policy = PolicySpec{Kind: k, P: -1}
		vs[k.String()] = cfg
	}
	return vs
}

// TestTenantGoldenBitIdentical guards the multi-tenant path — per-tenant
// policies, victim-tenant arbitration, the coremap and the tenant
// stream — the way TestGoldenCountersBitIdentical guards the
// single-tenant one.
func TestTenantGoldenBitIdentical(t *testing.T) {
	for name, cfg := range tenantGoldenVariants() {
		t.Run(name, func(t *testing.T) {
			want, ok := tenantGoldenRuns[name]
			if !ok {
				t.Fatalf("no tenant golden entry for %q", name)
			}
			res, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Runtime != want.Runtime {
				t.Errorf("runtime = %d, want %d", res.Runtime, want.Runtime)
			}
			if res.Resident != want.Resident {
				t.Errorf("resident = %d, want %d", res.Resident, want.Resident)
			}
			for c := 0; c < stats.NumCounters; c++ {
				if got := res.Run.Total(stats.Counter(c)); got != want.Counters[c] {
					t.Errorf("%s = %d, want %d", stats.Counter(c).Name(), got, want.Counters[c])
				}
			}
			ts := res.Run.Tenants
			if ts == nil || ts.Tenants() != len(want.Tenants) {
				t.Fatalf("per-tenant record %v, want %d tenants", ts, len(want.Tenants))
			}
			for i, row := range want.Tenants {
				for c, w := range row {
					if got := ts.Get(i, stats.TenantCounter(c)); got != w {
						t.Errorf("tenant %d %s = %d, want %d", i, stats.TenantCounter(c), got, w)
					}
				}
			}
		})
	}
}
