package sweep

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"cmcp/internal/machine"
	"cmcp/internal/stats"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

// tenantCfg is a small multi-tenant grid point.
func tenantCfg(seed uint64) machine.Config {
	spec := workload.DefaultTenantSpec(8, 1.2, 100)
	return machine.Config{
		Cores:       2,
		Tenants:     &spec,
		MemoryRatio: 0.5,
		Tables:      vm.PSPTKind,
		Policy:      machine.PolicySpec{Kind: machine.FIFO, P: -1},
		Seed:        seed,
	}
}

// TestKeyTenantSensitive extends the key-sensitivity property to the
// tenant spec: presence and every field must perturb the content key,
// so pre-tenant journal entries can never satisfy a tenant sweep.
func TestKeyTenantSensitive(t *testing.T) {
	bare := testCfg(1)
	bareKey, err := Key(bare)
	if err != nil {
		t.Fatal(err)
	}
	base := tenantCfg(1)
	base.Workload = workload.Spec{} // Tenants and Workload are exclusive
	baseKey, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}
	if baseKey == bareKey {
		t.Fatal("tenant config keys like a single-tenant one")
	}
	mutations := map[string]func(*workload.TenantSpec){
		"tenants":   func(s *workload.TenantSpec) { s.Tenants++ },
		"pages":     func(s *workload.TenantSpec) { s.PagesPerTenant++ },
		"touches":   func(s *workload.TenantSpec) { s.TotalTouches += 7 },
		"writefrac": func(s *workload.TenantSpec) { s.WriteFrac = 0.5 },
		"zipf":      func(s *workload.TenantSpec) { s.ZipfS = 0.9 },
		"pageskew":  func(s *workload.TenantSpec) { s.PageSkew = 3 },
		"churn":     func(s *workload.TenantSpec) { s.ChurnEvery = 500 },
		"diurnal":   func(s *workload.TenantSpec) { s.DiurnalEvery = 900 },
	}
	seen := map[string]string{baseKey: "base", bareKey: "bare"}
	for name, mutate := range mutations {
		c := base
		spec := *base.Tenants
		mutate(&spec)
		c.Tenants = &spec
		k, err := Key(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// TestTenantRepeatsPoolAndResume runs a multi-tenant grid point under
// Repeats=2 with a journal: tenant counters must average while the
// per-tenant fault histograms pool, and a resumed sweep (all replicates
// loaded from the journal) must reproduce the merged record
// bit-identically without executing anything.
func TestTenantRepeatsPoolAndResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "tenants.jsonl")
	cfgs := []machine.Config{tenantCfg(1)}
	opts := Options{Parallelism: 2, Repeats: 2, Journal: journal}

	out, err := Run(cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Results[0]
	ts := res.Run.Tenants
	if ts == nil {
		t.Fatal("merged result lost its tenant record")
	}

	// Reproduce the expected merge by hand from the two replicates.
	var reps []*machine.Result
	for s := uint64(1); s <= 2; s++ {
		c := tenantCfg(s)
		r, err := machine.Simulate(c)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, r)
	}
	for tn := 0; tn < ts.Tenants(); tn++ {
		for c := 0; c < stats.NumTenantCounters; c++ {
			tc := stats.TenantCounter(c)
			want := (reps[0].Run.Tenants.Get(tn, tc) + reps[1].Run.Tenants.Get(tn, tc)) / 2
			if got := ts.Get(tn, tc); got != want {
				t.Errorf("tenant %d %s = %d, want averaged %d", tn, tc, got, want)
			}
		}
		wantSamples := reps[0].Run.Tenants.FaultHist(tn).Count + reps[1].Run.Tenants.FaultHist(tn).Count
		if got := ts.FaultHist(tn).Count; got != wantSamples {
			t.Errorf("tenant %d fault hist has %d samples, want pooled %d", tn, got, wantSamples)
		}
	}

	// Resume: every replicate is journaled, so the re-run executes zero
	// simulations and must merge to the identical record.
	resumed, err := Run(cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Executed != 0 {
		t.Errorf("resume executed %d runs, want 0", resumed.Executed)
	}
	a, err := json.Marshal(res.Run)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(resumed.Results[0].Run)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("resumed tenant record differs from the executed one")
	}
}
