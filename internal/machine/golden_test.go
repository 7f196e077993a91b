package machine

import (
	"testing"

	"cmcp/internal/check"
	"cmcp/internal/obs"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

// The golden table below pins every per-policy counter, runtime and
// resident count bit-identically. If an intentional behaviour change
// ever breaks this test, re-capture the table in the same commit and
// say why.
//
// Last re-capture: two deliberate fixes changed simulated behaviour.
// (1) CMCP's aging timer no longer fires on the very first scanner
// tick (it used to decay freshly promoted keys a full period early);
// this shifts the "CMCP" entry. (2) The TLB FIFO sets now compact
// away stale queue slots once the queue exceeds 4*capacity+64; under
// the old lazy cleanup a page reinserted after an invalidation could
// inherit an older slot and be evicted early, so variants whose
// queues cross the threshold ("FIFO", "CMCP", "CLOCK", "Random",
// "FIFO/regularPT") shifted slightly. "LRU", "LFU" and the 64k CMCP
// variant were bit-identical across both fixes.

type goldenRun struct {
	Runtime  sim.Cycles
	Resident int
	Counters [stats.NumCounters]uint64 // Total() per counter, index order
}

var goldenRuns = map[string]goldenRun{
	"FIFO":               {Runtime: 46770987, Resident: 461, Counters: [stats.NumCounters]uint64{2861, 1952, 4029, 4029, 9566, 4753, 4813, 2861, 2401, 11718656, 9834496, 1005760, 0, 180000}},
	"LRU":                {Runtime: 73258880, Resident: 461, Counters: [stats.NumCounters]uint64{1971, 820, 34377, 2252, 32133, 0, 32133, 1971, 1509, 8073216, 6180864, 277483, 0, 180000}},
	"CMCP":               {Runtime: 41150484, Resident: 461, Counters: [stats.NumCounters]uint64{1988, 746, 2318, 2318, 8817, 6081, 2736, 1988, 1757, 8142848, 7196672, 817493, 0, 180000}},
	"CLOCK":              {Runtime: 52852378, Resident: 461, Counters: [stats.NumCounters]uint64{2116, 983, 13854, 2528, 11797, 151, 11646, 2116, 1654, 8667136, 6774784, 202599, 0, 180000}},
	"LFU":                {Runtime: 79270182, Resident: 461, Counters: [stats.NumCounters]uint64{2834, 1926, 36687, 4008, 32712, 0, 32712, 2834, 2373, 11608064, 9719808, 660346, 0, 180000}},
	"Random":             {Runtime: 48710219, Resident: 461, Counters: [stats.NumCounters]uint64{3158, 1740, 4216, 4216, 9403, 4505, 4898, 3158, 2799, 12935168, 11464704, 1041643, 0, 180000}},
	"FIFO/regularPT":     {Runtime: 63760892, Resident: 461, Counters: [stats.NumCounters]uint64{2905, 0, 20335, 20335, 9580, 4708, 4872, 2905, 2445, 11898880, 10014720, 0, 0, 180000}},
	"CMCP/64k":           {Runtime: 45522393, Resident: 29, Counters: [stats.NumCounters]uint64{1892, 574, 2146, 2146, 2466, 0, 2466, 1892, 1876, 123994112, 122945536, 13939812, 0, 180000}},
	"FIFO/2M":            {Runtime: 10933437995, Resident: 1, Counters: [stats.NumCounters]uint64{30905, 69412, 100001, 100001, 100317, 0, 100317, 30905, 21104, 64812482560, 44258295808, 73992736165, 0, 180000}},
	"FIFO/regularPT/64k": {Runtime: 64929868, Resident: 29, Counters: [stats.NumCounters]uint64{2638, 0, 18466, 18466, 4536, 0, 4536, 2638, 2609, 172883968, 170983424, 4007080, 0, 180000}},
	"FIFO/regularPT/2M":  {Runtime: 8831819075, Resident: 1, Counters: [stats.NumCounters]uint64{28880, 0, 202160, 202160, 29836, 0, 29836, 28880, 13211, 60565749760, 27705475072, 54706474215, 0, 180000}},
}

// goldenConfig is the pinned run configuration the table was captured
// under. Do not change it without re-capturing every entry.
func goldenConfig() Config {
	return Config{
		Cores:       8,
		Workload:    workload.SCALE().Scale(0.05),
		MemoryRatio: 0.5,
		PageSize:    sim.Size4k,
		Tables:      vm.PSPTKind,
		Seed:        7,
	}
}

func goldenVariants() map[string]Config {
	vs := make(map[string]Config)
	for _, k := range []PolicyKind{FIFO, LRU, CMCP, CLOCK, LFU, Random} {
		cfg := goldenConfig()
		cfg.Policy = PolicySpec{Kind: k, P: -1}
		vs[k.String()] = cfg
	}
	cfg := goldenConfig()
	cfg.Policy = PolicySpec{Kind: FIFO, P: -1}
	cfg.Tables = vm.RegularPT
	vs["FIFO/regularPT"] = cfg

	cfg = goldenConfig()
	cfg.Policy = PolicySpec{Kind: CMCP, P: 0.5}
	cfg.PageSize = sim.Size64k
	vs["CMCP/64k"] = cfg

	// The three remaining fixed sizes on FIFO: 2 MB under PSPT, and
	// 64 kB and 2 MB under the regular table.
	for _, v := range []struct {
		name   string
		tables vm.TableKind
		size   sim.PageSize
	}{
		{"FIFO/2M", vm.PSPTKind, sim.Size2M},
		{"FIFO/regularPT/64k", vm.RegularPT, sim.Size64k},
		{"FIFO/regularPT/2M", vm.RegularPT, sim.Size2M},
	} {
		cfg = goldenConfig()
		cfg.Policy = PolicySpec{Kind: FIFO, P: -1}
		cfg.Tables = v.tables
		cfg.PageSize = v.size
		vs[v.name] = cfg
	}

	return vs
}

func TestGoldenCountersBitIdentical(t *testing.T) {
	for name, cfg := range goldenVariants() {
		t.Run(name, func(t *testing.T) {
			want, ok := goldenRuns[name]
			if !ok {
				t.Fatalf("no golden entry for %q", name)
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
		})
	}
}

// TestGoldenViaRunMany re-runs four golden variants through the sweep
// driver at parallelism 1 and 2: RunMany must return each result at its
// input index, bit-identical to the golden Simulate produces alone.
func TestGoldenViaRunMany(t *testing.T) {
	vs := goldenVariants()
	names := []string{"FIFO", "CMCP", "LRU", "FIFO/regularPT"}
	cfgs := make([]Config, len(names))
	for i, name := range names {
		cfgs[i] = vs[name]
	}
	for _, parallelism := range []int{1, 2} {
		results, err := RunMany(cfgs, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			name, want := names[i], goldenRuns[names[i]]
			if res.Runtime != want.Runtime || res.Resident != want.Resident {
				t.Errorf("parallelism %d, run %d (%s): runtime %d resident %d, want %d and %d",
					parallelism, i, name, res.Runtime, res.Resident, want.Runtime, want.Resident)
			}
			for c := 0; c < stats.NumCounters; c++ {
				if got := res.Run.Total(stats.Counter(c)); got != want.Counters[c] {
					t.Errorf("parallelism %d, run %d (%s): %s = %d, want %d",
						parallelism, i, name, stats.Counter(c).Name(), got, want.Counters[c])
				}
			}
		}
	}
}

// TestGoldenHistBitIdentical re-runs every golden variant with
// histograms attached: all counters, the runtime and the resident count
// must stay bit-identical (histograms are read-only instrumentation,
// like Probe/Audit), the histograms themselves must be populated and
// deterministic across runs, and the fault-service count must equal the
// measured phase's fault counters exactly.
func TestGoldenHistBitIdentical(t *testing.T) {
	for name, cfg := range goldenVariants() {
		t.Run(name, func(t *testing.T) {
			want := goldenRuns[name]
			cfg.Hist = true
			res, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Runtime != want.Runtime {
				t.Errorf("runtime = %d, want %d (histograms perturbed the run)", res.Runtime, want.Runtime)
			}
			if res.Resident != want.Resident {
				t.Errorf("resident = %d, want %d", res.Resident, want.Resident)
			}
			for c := 0; c < stats.NumCounters; c++ {
				if got := res.Run.Total(stats.Counter(c)); got != want.Counters[c] {
					t.Errorf("%s = %d, want %d", stats.Counter(c).Name(), got, want.Counters[c])
				}
			}
			hs := res.Run.Hists
			if hs == nil {
				t.Fatal("Hist: true produced no histograms")
			}
			// Fault-service samples = major + minor faults of the measured
			// phase (the warm-up reset must have dropped warm-up faults).
			faults := want.Counters[stats.PageFaults] + want.Counters[stats.MinorFaults]
			if got := hs.Get(stats.FaultServiceHist).Count; got != faults {
				t.Errorf("fault_service count = %d, want %d", got, faults)
			}
			if got := hs.Get(stats.EvictionHist).Count; got != want.Counters[stats.Evictions] {
				t.Errorf("eviction count = %d, want %d", got, want.Counters[stats.Evictions])
			}
			for id := stats.HistID(0); id < stats.HistID(stats.NumHists); id++ {
				if !hs.Get(id).CheckInvariant() {
					t.Errorf("%s: invariant broken", id.Name())
				}
			}
			// Determinism: a second run yields byte-identical histograms.
			res2, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if *res2.Run.Hists != *hs {
				t.Error("histograms differ between identical runs")
			}
		})
	}
}

// TestParallelGoldenBitIdentical runs every golden variant with
// Config.Engine = ParallelEngine and histograms, the flight recorder
// and the invariant auditor attached at once, and requires the pinned
// table bit for bit: the three read-only observers together must not
// perturb a run, and the ParallelEngine name selects the one event
// loop (see EngineKind).
func TestParallelGoldenBitIdentical(t *testing.T) {
	for name, cfg := range goldenVariants() {
		t.Run(name, func(t *testing.T) {
			want := goldenRuns[name]
			cfg.Engine = ParallelEngine
			cfg.Hist = true
			cfg.Probe = obs.NewRecorder(obs.Config{})
			cfg.Audit = check.New(check.Config{})
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
		})
	}
}
