package machine

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"cmcp/internal/pagetable"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

// These tests pin the panic-free error contract: a policy or content
// failure inside the fault handler must surface as a structured error
// from Simulate (matchable with errors.Is), never as a panic, and
// RunMany must aggregate every failing run while preserving the
// successful runs' results.

// stubbornPolicy refuses to ever offer a victim: with constrained
// memory the allocator eventually finds no free frames and no victim.
type stubbornPolicy struct{ policy.Policy }

func (stubbornPolicy) Victim() (sim.PageID, bool) { return 0, false }

// lyingPolicy offers victims that were never resident.
type lyingPolicy struct{ policy.Policy }

func (lyingPolicy) Victim() (sim.PageID, bool) { return 1 << 20, true }

// tamperingPolicy behaves like FIFO but rewrites the Verify checker's
// backing-store copy of each evicted page before it can return, so the
// next page-in sees content that no longer matches what was stored.
type tamperingPolicy struct {
	policy.Policy
	chk  *vm.Checker
	last sim.PageID
	have bool
}

func (p *tamperingPolicy) Victim() (sim.PageID, bool) {
	if p.have {
		p.chk.SetHost(p.last, 0xdeadbeef)
		p.have = false
	}
	v, ok := p.Policy.Victim()
	if ok {
		p.last, p.have = v, true
	}
	return v, ok
}

// errConfig is a constrained single-core run that must evict steadily.
func errConfig(factory vm.PolicyFactory) Config {
	return Config{
		Cores:       1,
		Workload:    workload.Uniform(128, 4000),
		MemoryRatio: 0.25,
		PageSize:    sim.Size4k,
		Tables:      vm.PSPTKind,
		Policy:      PolicySpec{Factory: factory},
		Seed:        3,
	}
}

func TestSimulateNoVictimIsError(t *testing.T) {
	cfg := errConfig(func(policy.Host) policy.Policy {
		return stubbornPolicy{policy.NewFIFO()}
	})
	_, err := Simulate(cfg)
	if !errors.Is(err, vm.ErrNoVictim) {
		t.Fatalf("err = %v, want ErrNoVictim", err)
	}
}

func TestSimulateBadVictimIsError(t *testing.T) {
	cfg := errConfig(func(policy.Host) policy.Policy {
		return lyingPolicy{policy.NewFIFO()}
	})
	_, err := Simulate(cfg)
	if !errors.Is(err, vm.ErrBadVictim) {
		t.Fatalf("err = %v, want ErrBadVictim", err)
	}
}

func TestSimulateCorruptionIsError(t *testing.T) {
	cfg := errConfig(func(h policy.Host) policy.Policy {
		// The engine hands the policy factory the VM manager itself as
		// its Host; the test reaches through it to tamper with the
		// checker's backing store, simulating a lost or misdirected
		// transfer.
		return &tamperingPolicy{Policy: policy.NewFIFO(), chk: h.(*vm.Manager).Checker()}
	})
	cfg.Verify = true
	_, err := Simulate(cfg)
	if !errors.Is(err, vm.ErrCorruption) {
		t.Fatalf("err = %v, want ErrCorruption", err)
	}
}

func TestRunManyAggregatesFailures(t *testing.T) {
	good := errConfig(nil)
	good.Policy = PolicySpec{Kind: FIFO, P: -1}
	bad := errConfig(func(policy.Host) policy.Policy {
		return stubbornPolicy{policy.NewFIFO()}
	})
	worse := errConfig(func(policy.Host) policy.Policy {
		return lyingPolicy{policy.NewFIFO()}
	})
	results, err := RunMany([]Config{good, bad, good, worse}, 2)
	if !errors.Is(err, vm.ErrNoVictim) {
		t.Fatalf("err = %v, want ErrNoVictim in the join", err)
	}
	if !errors.Is(err, vm.ErrBadVictim) {
		t.Fatalf("err = %v, want ErrBadVictim in the join", err)
	}
	for _, frag := range []string{"run 1", "run 3", "custom"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
	if len(results) != 4 {
		t.Fatalf("got %d result slots, want 4 (one per config)", len(results))
	}
	if results[0] == nil || results[2] == nil {
		t.Error("successful runs must keep their results in a failed sweep")
	}
	if results[1] != nil || results[3] != nil {
		t.Error("failed runs must leave nil result slots")
	}
}

// TestSimulateFootprintOverVPNSpaceIsError: a footprint past the
// page-table VPN space fails with ErrFootprint before any layout is
// built. Exactly VPNSpace pages (VPNs 0 .. 2^36-1) still fit.
func TestSimulateFootprintOverVPNSpaceIsError(t *testing.T) {
	for name, cfg := range map[string]Config{
		"workload": {Cores: 1, Workload: workload.Spec{Pages: pagetable.VPNSpace + 1}},
		"tenants":  {Cores: 1, Tenants: &workload.TenantSpec{Tenants: 1 << 20, PagesPerTenant: 1<<16 + 1}},
		"overflow": {Cores: 1, Tenants: &workload.TenantSpec{Tenants: 1 << 40, PagesPerTenant: 1 << 40}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Simulate(cfg)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFootprint) {
			t.Errorf("%s: err = %v, want ErrFootprint", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("%s: allocated %d bytes, want the error before any layout", name, n)
		}
	}
	fits := Config{Workload: workload.Spec{Pages: pagetable.VPNSpace}}
	if !fits.footprintFits() {
		t.Error("a footprint of exactly VPNSpace pages must fit")
	}
}

// TestNonFiniteInputsRejected pins that a NaN in any float input is an
// error naming the field, not a run whose meaning silently changed
// (NaN fails no `<` check, so a range check written the other way
// round lets it through). The PCIe bandwidth must also be positive and
// finite: an infinite one deletes the wire time like NaN does. A
// MemoryRatio outside [0, 1] and a negative ScanBatch are errors too:
// the first used to run with the whole footprint resident, the second
// scanned one page per list on each tick, or panicked under LFU. An
// EngineKind other than the two names is an error too; it used to run
// silently.
func TestNonFiniteInputsRejected(t *testing.T) {
	nan := math.NaN()
	tenants := func(c *Config) *workload.TenantSpec {
		spec := workload.DefaultTenantSpec(4, 1.1, 0)
		c.Workload, c.Tenants = workload.Spec{}, &spec
		return &spec
	}
	dma := func(c *Config, v float64) {
		c.Cost = sim.DefaultCostModel()
		c.Cost.DMABytesPerCycle = v
	}
	for i, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"MemoryRatio", func(c *Config) { c.MemoryRatio = nan }},
		{"MemoryRatio", func(c *Config) { c.MemoryRatio = -0.5 }},
		{"MemoryRatio", func(c *Config) { c.MemoryRatio = 3 }},
		{"PolicySpec.P", func(c *Config) { c.Policy.P = nan }},
		{"WriteFrac", func(c *Config) { c.Workload.WriteFrac = nan }},
		{"SharedHotFrac", func(c *Config) { c.Workload.SharedHotFrac = nan }},
		{"PrivateHotFrac", func(c *Config) { c.Workload.PrivateHotFrac = nan }},
		{"HotQ", func(c *Config) { c.Workload.HotQ = nan }},
		{"SeqP", func(c *Config) { c.Workload.SeqP = nan }},
		{"HotSkew", func(c *Config) { c.Workload.HotSkew = nan }},
		{"Frac", func(c *Config) { c.Workload.Sharing[0].Frac = nan }},
		{"HotFrac", func(c *Config) { c.Workload.Sharing[0].HotFrac = nan }},
		{"WriteFrac", func(c *Config) { tenants(c).WriteFrac = nan }},
		{"ZipfS", func(c *Config) { tenants(c).ZipfS = nan }},
		{"PageSkew", func(c *Config) { tenants(c).PageSkew = nan }},
		{"DMABytesPerCycle", func(c *Config) { dma(c, nan) }},
		{"DMABytesPerCycle", func(c *Config) { dma(c, math.Inf(1)) }},
		{"DMABytesPerCycle", func(c *Config) { dma(c, 0) }},
		{"DMABytesPerCycle", func(c *Config) { dma(c, -10) }},
		{"PolicySpec.ScanBatch", func(c *Config) { c.Policy = PolicySpec{Kind: LRU, ScanBatch: -1} }},
		{"PolicySpec.ScanBatch", func(c *Config) { c.Policy = PolicySpec{Kind: LFU, ScanBatch: -1} }},
		{"Engine", func(c *Config) { c.Engine = EngineKind(7) }},
	} {
		cfg := Config{
			Cores:       4,
			Workload:    workload.SCALE().Scale(0.02),
			MemoryRatio: 0.5,
			Tables:      vm.PSPTKind,
			Policy:      PolicySpec{Kind: CMCP, P: -1},
			Seed:        1,
		}
		tc.set(&cfg)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("case %d (%s) panicked: %v", i, tc.field, p)
				}
			}()
			if _, err := Simulate(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("case %d (%s): err = %v, want an error naming it", i, tc.field, err)
			}
		}()
	}
}

// TestClockPastPackedBoundIsError: the scheduler packs a clock into the
// high 48 bits of an event key, so a run whose next event lies at or
// past 2^48 cycles must fail naming the core and the cycle rather than
// wrap the clock. The very first touch gets there, so the error must
// come at once.
func TestClockPastPackedBoundIsError(t *testing.T) {
	cost := sim.DefaultCostModel()
	cost.TouchCompute = 1 << 48
	cfg := Config{Cores: 2, Workload: workload.Private(64, 400), Cost: cost, Seed: 1}
	start := time.Now()
	_, err := Simulate(cfg)
	if took := time.Since(start); took > time.Second {
		t.Errorf("Simulate took %v to fail", took)
	}
	if err == nil || !strings.Contains(err.Error(), "core ") || !strings.Contains(err.Error(), "at cycle ") {
		t.Fatalf("err = %v, want an error naming the core and the cycle", err)
	}
}
