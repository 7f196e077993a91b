package machine

import (
	"testing"

	"cmcp/internal/obs"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

// quickCfg is a small, fast configuration for unit tests.
func quickCfg() Config {
	return Config{
		Cores:       4,
		Workload:    workload.SCALE().Scale(0.02),
		MemoryRatio: 0.5,
		PageSize:    sim.Size4k,
		Tables:      vm.PSPTKind,
		Policy:      PolicySpec{Kind: FIFO},
		Seed:        1,
		Verify:      true,
	}
}

func TestSimulateRunsToCompletion(t *testing.T) {
	res, err := Simulate(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime == 0 {
		t.Error("zero runtime")
	}
	perCore := res.Config.Workload.Scale(1).TotalTouches // unchanged spec
	_ = perCore
	total := res.Run.Total(stats.Touches)
	want := uint64(res.Config.Workload.TotalTouches/res.Config.Cores) * uint64(res.Config.Cores)
	if total != want {
		t.Errorf("touches = %d, want %d", total, want)
	}
	if res.Run.Total(stats.PageFaults) == 0 {
		t.Error("constrained run must fault")
	}
	if res.Sharing == nil {
		t.Error("PSPT run must report sharing histogram")
	}
	if res.PolicyName != "FIFO" {
		t.Errorf("policy = %s", res.PolicyName)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a, err := Simulate(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != b.Runtime {
		t.Fatalf("runtimes differ: %d vs %d", a.Runtime, b.Runtime)
	}
	for c := stats.Counter(0); c < stats.Counter(stats.NumCounters); c++ {
		if a.Run.Total(c) != b.Run.Total(c) {
			t.Errorf("counter %s differs: %d vs %d", c.Name(), a.Run.Total(c), b.Run.Total(c))
		}
	}
}

func TestSimulateSeedMatters(t *testing.T) {
	cfg := quickCfg()
	a, _ := Simulate(cfg)
	cfg.Seed = 99
	b, _ := Simulate(cfg)
	if a.Runtime == b.Runtime && a.Run.Total(stats.PageFaults) == b.Run.Total(stats.PageFaults) {
		t.Error("different seeds should almost surely differ")
	}
}

func TestSimulateNoDataMovement(t *testing.T) {
	cfg := quickCfg()
	cfg.MemoryRatio = 1.0
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ev := res.Run.Total(stats.Evictions); ev != 0 {
		t.Errorf("evictions = %d with full memory", ev)
	}
	// With the default warm-up, demand paging happened before the
	// measured phase: the steady state takes no major faults at all.
	if res.Run.Total(stats.PageFaults) != 0 {
		t.Errorf("steady state with full memory must not fault, got %d",
			res.Run.Total(stats.PageFaults))
	}
	// The warm-up touched every page once, so every page stays
	// resident.
	if res.Resident != res.TotalPages {
		t.Errorf("resident = %d after warm-up at full memory, want all %d pages", res.Resident, res.TotalPages)
	}
}

func TestSimulateAllPolicies(t *testing.T) {
	for _, k := range []PolicyKind{FIFO, LRU, CMCP, CLOCK, LFU, Random} {
		cfg := quickCfg()
		cfg.Policy = PolicySpec{Kind: k, P: -1}
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if res.Runtime == 0 {
			t.Errorf("%v: zero runtime", k)
		}
		if res.PolicyName != k.String() {
			t.Errorf("name %s != kind %s", res.PolicyName, k)
		}
	}
	cfg := quickCfg()
	cfg.Policy.Kind = PolicyKind(99)
	if _, err := Simulate(cfg); err == nil {
		t.Error("unknown policy must fail")
	}
	if PolicyKind(99).String() == "" {
		t.Error("unknown kind must still print")
	}
}

func TestSimulateRegularPTBroadcasts(t *testing.T) {
	cfg := quickCfg()
	cfg.Tables = vm.RegularPT
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sharing != nil {
		t.Error("regular PT has no sharing histogram")
	}
	// Broadcast shootdowns: remote invalidations per eviction ≈ cores-1.
	ev := res.Run.Total(stats.Evictions)
	inv := res.Run.Total(stats.RemoteTLBInvalidations)
	if ev == 0 {
		t.Fatal("expected evictions")
	}
	perEv := float64(inv) / float64(ev)
	if perEv < float64(cfg.Cores-1)-0.1 {
		t.Errorf("remote invals per eviction = %.2f, want ~%d (broadcast)", perEv, cfg.Cores-1)
	}
}

func TestSimulatePSPTFewerShootdowns(t *testing.T) {
	reg := quickCfg()
	reg.Tables = vm.RegularPT
	ps := quickCfg()
	a, err := Simulate(reg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(ps)
	if err != nil {
		t.Fatal(err)
	}
	if b.Run.Total(stats.RemoteTLBInvalidations) >= a.Run.Total(stats.RemoteTLBInvalidations) {
		t.Errorf("PSPT invals %d must be below regular PT invals %d",
			b.Run.Total(stats.RemoteTLBInvalidations), a.Run.Total(stats.RemoteTLBInvalidations))
	}
}

func TestSimulateCMCPDynamicP(t *testing.T) {
	cfg := quickCfg()
	cfg.Policy = PolicySpec{Kind: CMCP, P: 0.5, DynamicP: true}
	if _, err := Simulate(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateLRUShootsDownMore(t *testing.T) {
	fifo := quickCfg()
	lru := quickCfg()
	lru.Policy = PolicySpec{Kind: LRU}
	a, err := Simulate(fifo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(lru)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's core observation: LRU's statistics scanning multiplies
	// remote TLB invalidations.
	if b.Run.Total(stats.RemoteTLBInvalidations) <= a.Run.Total(stats.RemoteTLBInvalidations) {
		t.Errorf("LRU invals %d must exceed FIFO invals %d",
			b.Run.Total(stats.RemoteTLBInvalidations), a.Run.Total(stats.RemoteTLBInvalidations))
	}
}

func TestSimulate64kPages(t *testing.T) {
	cfg := quickCfg()
	cfg.PageSize = sim.Size64k
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames%int(sim.Span64k) != 0 {
		t.Errorf("frames %d not a whole number of 64k mappings", res.Frames)
	}
	if res.Run.Total(stats.PageFaults) == 0 {
		t.Error("expected faults")
	}
	// Fewer mappings → fewer faults than 4k at the same ratio, but more
	// bytes per fault.
	bytesPerFault := float64(res.Run.Total(stats.BytesIn)) / float64(res.Run.Total(stats.PageFaults))
	if bytesPerFault != sim.PageSize64k {
		t.Errorf("bytes per fault = %v, want 64k", bytesPerFault)
	}
}

func TestSimulateValidation(t *testing.T) {
	cfg := quickCfg()
	cfg.Cores = 0
	if _, err := Simulate(cfg); err == nil {
		t.Error("zero cores must fail")
	}
	cfg = quickCfg()
	cfg.Workload.Pages = -1
	if _, err := Simulate(cfg); err == nil {
		t.Error("bad workload must fail")
	}
}

func TestFramesRounding(t *testing.T) {
	if f := Frames(1000, 1.0, sim.Size4k); f != 1000 {
		t.Errorf("full 4k frames = %d", f)
	}
	if f := Frames(1000, 0.5, sim.Size4k); f != 500 {
		t.Errorf("half 4k frames = %d", f)
	}
	f := Frames(1000, 1.0, sim.Size64k)
	if f != 1008 { // 63 mappings of 16 pages
		t.Errorf("full 64k frames = %d", f)
	}
	if f := Frames(1000, 0.001, sim.Size2M); f != int(sim.Span2M) {
		t.Errorf("minimum must be one mapping, got %d", f)
	}
	if f := Frames(100, 5.0, sim.Size4k); f != 100 {
		t.Errorf("ratio > 1 must clamp to footprint, got %d", f)
	}
}

func TestRunMany(t *testing.T) {
	cfgs := make([]Config, 6)
	for i := range cfgs {
		cfgs[i] = quickCfg()
		cfgs[i].Seed = uint64(i)
	}
	results, err := RunMany(cfgs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	// Order preserved and deterministic versus serial execution.
	serial, err := Simulate(cfgs[2])
	if err != nil {
		t.Fatal(err)
	}
	if results[2].Runtime != serial.Runtime {
		t.Error("parallel sweep must match serial execution exactly")
	}
	// Errors propagate.
	cfgs[3].Cores = -1
	if _, err := RunMany(cfgs, 2); err == nil {
		t.Error("error must propagate")
	}
	// Degenerate parallelism values.
	if _, err := RunMany(cfgs[:2], 0); err != nil {
		t.Error(err)
	}
}

func TestScannerAdvancesWithLongPolicyWork(t *testing.T) {
	// With LRU scanning everything each tick the scanner cost can
	// exceed the tick interval; the engine must not livelock. The
	// footprint is large enough for a full scan to cost more than a tick.
	cfg := quickCfg()
	cfg.Workload = workload.SCALE().Scale(0.1)
	cfg.Policy = PolicySpec{Kind: LRU, ScanPeriod: 100_000}
	rec := obs.NewRecorder(obs.Config{Events: 1 << 20})
	cfg.Probe = rec
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime == 0 {
		t.Error("run must finish")
	}
	longest := sim.Cycles(0)
	for _, ev := range rec.Events() {
		if ev.Type == obs.EvScanTick {
			longest = max(longest, sim.Cycles(ev.Arg))
		}
	}
	if longest <= tickInterval {
		t.Errorf("longest scanner tick cost %d cycles, want more than the %d-cycle tick interval", longest, tickInterval)
	}
	if rec.Dropped() != 0 {
		t.Errorf("recorder dropped %d events; the longest tick may be among them", rec.Dropped())
	}
}

func TestWarmupExcludedFromCounters(t *testing.T) {
	// With warm-up, measured touches equal exactly the stream volume;
	// warm-up's one-touch-per-page does not leak into the counters.
	cfg := quickCfg()
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perCore := uint64(cfg.Workload.TotalTouches / cfg.Cores)
	if got := res.Run.Total(stats.Touches); got != perCore*uint64(cfg.Cores) {
		t.Errorf("measured touches = %d, want %d", got, perCore*uint64(cfg.Cores))
	}
}

func TestSimulateCustomFactoryDeterministic(t *testing.T) {
	cfg := quickCfg()
	cfg.Policy = PolicySpec{Factory: func(policy.Host) policy.Policy { return policy.NewClock(nil) }}
	// NewClock(nil) would crash on ScanAccessed; use a FIFO instead to
	// keep the custom path safe.
	cfg.Policy = PolicySpec{Factory: func(policy.Host) policy.Policy { return policy.NewFIFO() }}
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != b.Runtime {
		t.Error("custom factory must not break determinism")
	}
	if a.PolicyName != "FIFO" {
		t.Errorf("policy name = %s", a.PolicyName)
	}
}

// TestProbeRecordsEvents attaches a flight recorder and checks the
// event trace agrees with the aggregate counters: one EvFault per
// counted page fault, one EvEviction per counted eviction, and samples
// on the configured schedule.
func TestProbeRecordsEvents(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{Events: 1 << 20, SampleEvery: 50_000})
	cfg := quickCfg()
	cfg.Policy = PolicySpec{Kind: CMCP, P: 0.5}
	cfg.Probe = rec
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var faults, minors, evictions, promotions uint64
	for _, e := range rec.Events() {
		switch e.Type {
		case obs.EvFault:
			faults++
		case obs.EvMinorFault:
			minors++
		case obs.EvEviction:
			evictions++
		case obs.EvPromotion:
			promotions++
		}
	}
	// The recorder sees warm-up plus measured phase; the Run counters
	// are rebased to the measured phase only, so events >= counters.
	if rebased := res.Run.Total(stats.PageFaults); faults < rebased || faults == 0 {
		t.Errorf("trace has %d faults, counters (measured phase) %d", faults, rebased)
	}
	if rebased := res.Run.Total(stats.MinorFaults); minors < rebased {
		t.Errorf("trace has %d minor faults, counters %d", minors, rebased)
	}
	if rebased := res.Run.Total(stats.Evictions); evictions < rebased || evictions == 0 {
		t.Errorf("trace has %d evictions, counters %d", evictions, rebased)
	}
	if promotions == 0 {
		t.Error("CMCP run recorded no promotions")
	}
	if rec.Dropped() != 0 {
		t.Errorf("%d events dropped with an oversized ring", rec.Dropped())
	}

	samples := rec.Samples()
	if len(samples) < 2 {
		t.Fatalf("got %d samples", len(samples))
	}
	for i, s := range samples {
		if i > 0 && s.Time <= samples[i-1].Time {
			t.Fatalf("sample %d time %d not increasing", i, s.Time)
		}
		if s.Resident < 0 || s.FIFOLen < 0 || s.PrioLen < 0 {
			t.Fatalf("sample %d missing CMCP group split: %+v", i, s)
		}
	}
	last := samples[len(samples)-1]
	if last.Counters[stats.Touches] == 0 {
		t.Error("final sample has zero cumulative touches")
	}
}

// TestSamplesCountTheScanner: scan clears and the IPIs that clearing
// accessed bits sends are charged to the scanner pseudo-core's row, so
// the sampled counters must sum it too. On one core no application core
// sends an IPI, so every IPI in a sample is the scanner's.
func TestSamplesCountTheScanner(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{Events: -1, SampleEvery: 100_000})
	cfg := Config{Cores: 1, Workload: workload.Private(256, 20_000), MemoryRatio: 0.5,
		Tables: vm.PSPTKind, Policy: PolicySpec{Kind: LRU}, Seed: 1, Probe: rec}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scanner := sim.ScannerCore(cfg.Cores)
	if res.Run.Total(stats.IPIsSent) != 0 || res.Run.Get(scanner, stats.IPIsSent) == 0 {
		t.Fatalf("premise: core IPIs %d, scanner IPIs %d; want only the scanner's",
			res.Run.Total(stats.IPIsSent), res.Run.Get(scanner, stats.IPIsSent))
	}
	samples := rec.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	last := samples[len(samples)-1]
	if last.Counters[stats.ScanClears] == 0 {
		t.Error("last sample has zero scan_clears")
	}
	if last.Counters[stats.IPIsSent] == 0 {
		t.Error("last sample misses the scanner's IPIs")
	}
}

// TestProbeDoesNotPerturbSimulation verifies observation is free in
// virtual time: identical Runtime and counters with and without a
// recorder attached.
func TestProbeDoesNotPerturbSimulation(t *testing.T) {
	plain, err := Simulate(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.Probe = obs.NewRecorder(obs.Config{SampleEvery: 10_000})
	probed, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Runtime != probed.Runtime {
		t.Errorf("tracing changed runtime: %d vs %d", plain.Runtime, probed.Runtime)
	}
	for c := 0; c < stats.NumCounters; c++ {
		if a, b := plain.Run.Total(stats.Counter(c)), probed.Run.Total(stats.Counter(c)); a != b {
			t.Errorf("tracing changed counter %s: %d vs %d", stats.Counter(c).Name(), a, b)
		}
	}
}
