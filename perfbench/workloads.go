package main

import (
	"fmt"

	"cmcp"
	"cmcp/internal/machine"
)

// defaultSeed is the seed whose fingerprints are pinned in
// fingerprints.json.
const defaultSeed = 1

// benchConfig is one Simulate call a workload makes per pass.
type benchConfig struct {
	name string
	cfg  cmcp.Config
}

// key identifies the config in the fingerprint table.
func (b benchConfig) key(workload string) string { return workload + "/" + b.name }

// pages returns the footprint the config lays out: the layout build is
// part of set-up, and its size cross-checks every Result's TotalPages.
func (b benchConfig) pages() (int, error) {
	if b.cfg.Tenants != nil {
		tl, err := b.cfg.Tenants.Build(b.cfg.Cores)
		if err != nil {
			return 0, err
		}
		return tl.TotalPages, nil
	}
	l, err := b.cfg.Workload.Build(b.cfg.Cores)
	if err != nil {
		return 0, err
	}
	return l.TotalPages, nil
}

// frames is the device size Simulate resolves the config's MemoryRatio to.
func (b benchConfig) frames(pages int) int {
	return machine.Frames(pages, b.cfg.MemoryRatio, b.cfg.PageSize)
}

// benchWorkload is one named input set: the configs one pass runs, in order.
// BENCHMARK.json records why each was chosen.
type benchWorkload struct {
	name    string
	configs func(seed uint64) []benchConfig
}

// tenantSpec is the tenants-zipf machine: 1024 Zipf(1.1) tenants with
// churn every 250 touches per core, 2,000 touches per tenant.
func tenantSpec() *cmcp.TenantSpec {
	s := cmcp.DefaultTenantSpec(1024, 1.1, 250)
	s.TotalTouches = 2_048_000
	return &s
}

var workloads = []benchWorkload{
	{
		name: "hits-cmcp-scale",
		configs: func(seed uint64) []benchConfig {
			return []benchConfig{{"CMCP", cmcp.Config{
				Cores: 56, Workload: cmcp.SCALE(), Tables: cmcp.PSPT, MemoryRatio: 0.55,
				Policy: cmcp.PolicySpec{Kind: cmcp.CMCP, P: 0.875}, Seed: seed,
			}}}
		},
	},
	{
		name: "scan-pspt-bt",
		configs: func(seed uint64) []benchConfig {
			var out []benchConfig
			for _, k := range []cmcp.PolicyKind{cmcp.LRU, cmcp.LFU, cmcp.CLOCK} {
				out = append(out, benchConfig{k.String(), cmcp.Config{
					Cores: 56, Workload: cmcp.BT(), Tables: cmcp.PSPT, MemoryRatio: 0.62,
					Policy: cmcp.PolicySpec{Kind: k}, Seed: seed,
				}})
			}
			return out
		},
	},
	{
		name: "faults-regular-cg",
		configs: func(seed uint64) []benchConfig {
			return []benchConfig{{"FIFO", cmcp.Config{
				Cores: 56, Workload: cmcp.CG(), Tables: cmcp.RegularPT, MemoryRatio: 0.38,
				Policy: cmcp.PolicySpec{Kind: cmcp.FIFO}, Seed: seed,
			}}}
		},
	},
	{
		name: "tenants-zipf",
		configs: func(seed uint64) []benchConfig {
			return []benchConfig{{"CMCP", cmcp.Config{
				Cores: 16, Tenants: tenantSpec(), Tables: cmcp.PSPT, MemoryRatio: 0.5,
				Policy: cmcp.PolicySpec{Kind: cmcp.CMCP, P: -1}, Seed: seed,
			}}}
		},
	},
}

func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}
