package machine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"cmcp/internal/check"
	"cmcp/internal/core"
	"cmcp/internal/obs"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

// tenantConfig is the base multi-tenant machine the tests below vary:
// enough tenants to make victim arbitration interesting, churn and a
// diurnal phase so the hot set moves, and a frame pool covering half
// the aggregate footprint so every policy is forced to evict across
// tenant boundaries.
func tenantConfig(tenants int) Config {
	spec := workload.DefaultTenantSpec(tenants, 1.2, 200)
	spec.DiurnalEvery = 1500
	return Config{
		Cores:       8,
		Tenants:     &spec,
		MemoryRatio: 0.5,
		Tables:      vm.PSPTKind,
		Policy:      PolicySpec{Kind: CMCP, P: -1},
		Seed:        11,
	}
}

// runJSON renders a Run for whole-record comparison: counters, tenant
// counters and every histogram, through the same marshaller journals
// use, so any divergence anywhere in the record fails the comparison.
func runJSON(t *testing.T, r *stats.Run) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTenantEnginesBitIdentical pins ParallelEngine's contract on a
// multi-tenant run with churn and a diurnal phase: the result,
// per-tenant record included, is bit-identical to the SerialEngine
// run. Both names select the one event loop (see EngineKind).
func TestTenantEnginesBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"cmcp", func(*Config) {}},
		{"lru", func(cfg *Config) { cfg.Policy = PolicySpec{Kind: LRU} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tenantConfig(24)
			tc.mod(&cfg)
			cfg.Engine = SerialEngine
			serial, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Engine = ParallelEngine
			parallel, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Runtime != parallel.Runtime {
				t.Errorf("runtime: serial %d, parallel %d", serial.Runtime, parallel.Runtime)
			}
			if serial.Run.Tenants == nil || parallel.Run.Tenants == nil {
				t.Fatal("tenant run produced no per-tenant record")
			}
			if a, b := runJSON(t, serial.Run), runJSON(t, parallel.Run); !bytes.Equal(a, b) {
				t.Error("per-tenant records differ between engine names")
			}
		})
	}
}

// TestTenant10kZipfAcceptance is the scale acceptance run: 10,000
// tenant address spaces under Zipfian selection complete
// deterministically, report a per-tenant p99 fault-service latency and
// a fairness metric, and are bit-identical across repeats.
func TestTenant10kZipfAcceptance(t *testing.T) {
	spec := workload.DefaultTenantSpec(10_000, 1.1, 0)
	spec.TotalTouches = 200_000
	cfg := Config{
		Cores:       8,
		Tenants:     &spec,
		MemoryRatio: 0.5,
		Tables:      vm.PSPTKind,
		Policy:      PolicySpec{Kind: FIFO, P: -1},
		Seed:        3,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := res.Run.Tenants
	if ts == nil || ts.Tenants() != 10_000 {
		t.Fatalf("expected a 10,000-tenant record, got %v", ts)
	}
	if ts.Total(stats.TenantFaults) == 0 {
		t.Fatal("no tenant faulted; the run measured nothing")
	}
	// Every tenant that faulted must report a positive p99.
	checked := 0
	for i := 0; i < ts.Tenants(); i++ {
		h := ts.FaultHist(i)
		if h.Count == 0 {
			continue
		}
		if h.P99() == 0 {
			t.Fatalf("tenant %d faulted %d times but reports p99 = 0", i, h.Count)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no tenant recorded fault-service latency")
	}
	if f := ts.FairnessIndex(); f <= 0 || f > 1 {
		t.Errorf("fairness index %v outside (0, 1]", f)
	}
	// Deterministic: a repeat run is byte-identical.
	again, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(runJSON(t, res.Run), runJSON(t, again.Run)) {
		t.Error("repeat run differs")
	}
}

// TestZeroTenantGoldenIdentity pins that with Config.Tenants nil the
// golden table is reproduced bit-identically under either engine name
// and no per-tenant record is attached: the multi-tenant machinery is
// invisible to single-tenant runs.
func TestZeroTenantGoldenIdentity(t *testing.T) {
	vs := goldenVariants()
	for _, name := range []string{"FIFO", "CMCP"} {
		for _, eng := range []EngineKind{SerialEngine, ParallelEngine} {
			t.Run(name+"/"+eng.String(), func(t *testing.T) {
				cfg := vs[name]
				cfg.Engine = eng
				res, err := Simulate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Run.Tenants != nil {
					t.Error("single-tenant run grew a per-tenant record")
				}
				want := goldenRuns[name]
				if res.Runtime != want.Runtime {
					t.Errorf("runtime = %d, want %d", res.Runtime, want.Runtime)
				}
				for c := 0; c < stats.NumCounters; c++ {
					if got := res.Run.Total(stats.Counter(c)); got != want.Counters[c] {
						t.Errorf("%s = %d, want %d", stats.Counter(c).Name(), got, want.Counters[c])
					}
				}
			})
		}
	}
}

// TestTenantAudited runs a churning multi-tenant machine under the
// invariant auditor: Σ per-tenant residency must equal the device
// frames in use, no frame may be owned by two tenants, and the
// coremap's counts must match a full recount — every few thousand
// events, with zero violations tolerated. The subtest is named for the
// shared-pool arbitration (victim tenant chosen by frames held), the
// only mode left since per-tenant quotas were deleted.
func TestTenantAudited(t *testing.T) {
	t.Run("weighted", func(t *testing.T) {
		cfg := tenantConfig(16)
		aud := check.New(check.Config{Every: 1024})
		cfg.Audit = aud
		if _, err := Simulate(cfg); err != nil {
			t.Fatal(err)
		}
		if aud.Audits() == 0 {
			t.Fatal("auditor attached but never ran")
		}
		if vs := aud.Violations(); len(vs) != 0 {
			t.Fatalf("%d violations: %v", len(vs), vs)
		}
	})
}

// alwaysDue wraps a policy and hides its policy.Deadline, so the tenant
// machine ticks it on every scanner tick. NoteFault is forwarded so the
// dynamic-p tuner still sees faults.
type alwaysDue struct{ policy.Policy }

func (p alwaysDue) NoteFault() {
	if o, ok := p.Policy.(vm.FaultObserver); ok {
		o.NoteFault()
	}
}

// countTicks wraps a policy, counting Tick calls into n and forwarding
// NextTick and NoteFault.
type countTicks struct {
	alwaysDue
	n *int
}

func (p countTicks) Tick(now sim.Cycles) {
	*p.n++
	p.Policy.Tick(now)
}

func (p countTicks) NextTick() sim.Cycles { return p.Policy.(policy.Deadline).NextTick() }

// tenantFactory returns the factory Simulate would build for cfg's
// per-tenant policies, with each instance passed through wrap.
func tenantFactory(t *testing.T, cfg Config, wrap func(policy.Policy) policy.Policy) vm.PolicyFactory {
	t.Helper()
	frames := Frames(cfg.Tenants.Tenants*cfg.Tenants.PagesPerTenant, cfg.MemoryRatio, cfg.PageSize)
	inner, err := buildPolicy(cfg, max(frames/cfg.Tenants.Tenants, 1), cfg.Tenants.PagesPerTenant)
	if err != nil {
		t.Fatal(err)
	}
	return func(h policy.Host) policy.Policy { return wrap(inner(h)) }
}

// TestTenantDeadlineBitIdentical pins the scanner lane's due-only
// ticking: every built-in policy (and CMCP with the dynamic-p tuner)
// produces a Result deep-equal to the same run with every tenant
// ticked on every scanner tick.
func TestTenantDeadlineBitIdentical(t *testing.T) {
	specs := []PolicySpec{{Kind: CMCP, P: -1, DynamicP: true}}
	for _, k := range []PolicyKind{FIFO, LRU, CMCP, CLOCK, LFU, Random} {
		specs = append(specs, PolicySpec{Kind: k, P: -1})
	}
	for _, ps := range specs {
		name := ps.Kind.String()
		if ps.DynamicP {
			name += "+dynamicP"
		}
		t.Run(name, func(t *testing.T) {
			cfg := tenantConfig(24)
			cfg.Policy = ps
			if ps.DynamicP {
				// Long enough for several tuner windows.
				cfg.Tenants.TotalTouches = 300_000
			}
			due, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			every := cfg
			every.Policy.Factory = tenantFactory(t, cfg, func(p policy.Policy) policy.Policy { return alwaysDue{p} })
			all, err := Simulate(every)
			if err != nil {
				t.Fatal(err)
			}
			all.Config.Policy.Factory = nil // funcs never compare equal
			if !reflect.DeepEqual(due, all) {
				t.Errorf("due-only ticking diverged: runtime %d vs %d", due.Runtime, all.Runtime)
			}
		})
	}
}

// TestTenantTicksOnlyWhenDue counts tenant Tick calls on a CMCP tenant
// machine: the scanner lane calls every tenant once per due tick (the
// arming tick plus one per aging sweep) instead of once per scanner
// tick.
func TestTenantTicksOnlyWhenDue(t *testing.T) {
	cfg := tenantConfig(64)
	var due, every int
	run := func(wrap func(policy.Policy) policy.Policy) {
		c := cfg
		c.Policy.Factory = func(h policy.Host) policy.Policy {
			// An aging sweep every 40 scanner ticks: several per run.
			return wrap(core.New(h, 8, core.WithAgePeriod(40*25_000)))
		}
		if _, err := Simulate(c); err != nil {
			t.Fatal(err)
		}
	}
	run(func(p policy.Policy) policy.Policy { return countTicks{alwaysDue{p}, &due} })
	run(func(p policy.Policy) policy.Policy { return alwaysDue{countTicks{alwaysDue{p}, &every}} })
	if due <= 64 || due%64 != 0 {
		t.Errorf("due-only run made %d tenant Tick calls, want a multiple of 64 above the arming tick", due)
	}
	if due*20 > every {
		t.Errorf("due-only run made %d tenant Tick calls, ticking every time made %d; want < 5%%", due, every)
	}
}

// TestTenantSamplerSumsGroups checks the sampler reports CMCP's group
// split summed over all tenants, not tenant 0's alone: every sample's
// FIFO plus priority length equals the resident count.
func TestTenantSamplerSumsGroups(t *testing.T) {
	cfg := tenantConfig(8)
	rec := obs.NewRecorder(obs.Config{Events: -1, SampleEvery: 100_000})
	cfg.Probe = rec
	if _, err := Simulate(cfg); err != nil {
		t.Fatal(err)
	}
	samples := rec.Samples()
	if len(samples) == 0 {
		t.Fatal("sampled run recorded no samples")
	}
	for i, s := range samples {
		if s.FIFOLen+s.PrioLen != s.Resident {
			t.Fatalf("sample %d at cycle %d: FIFOLen+PrioLen = %d+%d, resident %d",
				i, s.Time, s.FIFOLen, s.PrioLen, s.Resident)
		}
	}
}
