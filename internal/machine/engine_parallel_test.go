package machine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"cmcp/internal/check"
	"cmcp/internal/obs"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want EngineKind
		ok   bool
	}{
		{"", SerialEngine, true},
		{"serial", SerialEngine, true},
		{"parallel", ParallelEngine, true},
		{"turbo", 0, false},
	} {
		got, err := ParseEngine(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
	}
	if SerialEngine.String() != "serial" || ParallelEngine.String() != "parallel" {
		t.Error("EngineKind.String mismatch")
	}
}

// compareResults requires the two results to be bit-identical in every
// observable: runtime, per-core counters (scanner row included), finish
// times, resident count, sharing histogram and latency histograms.
func compareResults(t *testing.T, serial, parallel *Result) {
	t.Helper()
	if serial.Runtime != parallel.Runtime {
		t.Errorf("runtime: serial %d, parallel %d", serial.Runtime, parallel.Runtime)
	}
	if serial.Resident != parallel.Resident {
		t.Errorf("resident: serial %d, parallel %d", serial.Resident, parallel.Resident)
	}
	for core := 0; core <= serial.Run.Cores; core++ {
		for c := 0; c < stats.NumCounters; c++ {
			s := serial.Run.Get(sim.CoreID(core), stats.Counter(c))
			p := parallel.Run.Get(sim.CoreID(core), stats.Counter(c))
			if s != p {
				t.Errorf("core %d %s: serial %d, parallel %d", core, stats.Counter(c).Name(), s, p)
			}
		}
		if s, p := serial.Run.Finish[core], parallel.Run.Finish[core]; s != p {
			t.Errorf("core %d finish: serial %d, parallel %d", core, s, p)
		}
	}
	if len(serial.Sharing) != len(parallel.Sharing) {
		t.Errorf("sharing: serial %v, parallel %v", serial.Sharing, parallel.Sharing)
	} else {
		for i := range serial.Sharing {
			if serial.Sharing[i] != parallel.Sharing[i] {
				t.Errorf("sharing[%d]: serial %d, parallel %d", i, serial.Sharing[i], parallel.Sharing[i])
			}
		}
	}
	switch {
	case (serial.Run.Hists == nil) != (parallel.Run.Hists == nil):
		t.Error("hists: attached on one engine only")
	case serial.Run.Hists != nil && *serial.Run.Hists != *parallel.Run.Hists:
		t.Error("hists differ between engines")
	}
}

// compareTraces requires identical flight-recorder event sequences.
func compareTraces(t *testing.T, serial, parallel *obs.Recorder) {
	t.Helper()
	se, pe := serial.Events(), parallel.Events()
	if serial.Dropped() != parallel.Dropped() {
		t.Errorf("trace dropped: serial %d, parallel %d", serial.Dropped(), parallel.Dropped())
	}
	if len(se) != len(pe) {
		t.Errorf("trace length: serial %d, parallel %d", len(se), len(pe))
		return
	}
	for i := range se {
		if se[i] != pe[i] {
			t.Errorf("trace[%d]: serial %+v, parallel %+v", i, se[i], pe[i])
			return
		}
	}
}

// runBoth simulates cfg on both engines with a fresh recorder and
// auditor each and the Verify checker on, compares everything, and
// returns the serial result.
func runBoth(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg.Verify = true
	sCfg := cfg
	sCfg.Engine = SerialEngine
	sCfg.Probe = obs.NewRecorder(obs.Config{})
	sCfg.Audit = check.New(check.Config{})
	serial, err := Simulate(sCfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	pCfg := cfg
	pCfg.Engine = ParallelEngine
	pCfg.Probe = obs.NewRecorder(obs.Config{})
	pCfg.Audit = check.New(check.Config{})
	parallel, err := Simulate(pCfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	compareResults(t, serial, parallel)
	compareTraces(t, sCfg.Probe, pCfg.Probe)
	return serial
}

// TestParallelGoldenBitIdentical runs every golden variant on the
// parallel engine — histograms on, auditor attached, flight recorder
// attached — and requires the pinned serial table bit-for-bit.
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

// TestParallelDifferential is the randomized property harness: a
// deterministic matrix over six policies × hist on/off (auditor and
// flight recorder always attached) plus randomized
// configurations varying cores, scale, memory ratio, page size, table
// kind and seeds. Every configuration
// must produce byte-identical Results and trace event sequences on both
// engines.
func TestParallelDifferential(t *testing.T) {
	type variant struct {
		name string
		cfg  Config
	}
	var variants []variant

	// Matrix: 6 policies × hist = 12 configurations.
	kinds := []PolicyKind{FIFO, LRU, CMCP, CLOCK, LFU, Random}
	for _, k := range kinds {
		for _, withHist := range []bool{false, true} {
			cfg := Config{
				Cores:       6,
				Workload:    workload.SCALE().Scale(0.02),
				MemoryRatio: 0.5,
				PageSize:    sim.Size4k,
				Tables:      vm.PSPTKind,
				Policy:      PolicySpec{Kind: k, P: -1},
				Seed:        11,
				Hist:        withHist,
			}
			variants = append(variants, variant{fmt.Sprintf("%v/hist=%v", k, withHist), cfg})
		}
	}

	// Randomized: 36 more draws over the wider config space.
	rng := rand.New(rand.NewSource(20260807))
	tables := []vm.TableKind{vm.PSPTKind, vm.RegularPT}
	sizes := []sim.PageSize{sim.Size4k, sim.Size64k}
	for i := 0; i < 36; i++ {
		k := kinds[rng.Intn(len(kinds))]
		cfg := Config{
			Cores:       2 + rng.Intn(9),
			Workload:    workload.SCALE().Scale(0.01 + rng.Float64()*0.02),
			MemoryRatio: 0.3 + rng.Float64()*0.6,
			PageSize:    sizes[rng.Intn(len(sizes))],
			Tables:      tables[rng.Intn(len(tables))],
			Policy:      PolicySpec{Kind: k, P: -1},
			Seed:        rng.Uint64(),
			Hist:        rng.Intn(2) == 0,
		}
		rng.Intn(4) // no-op slot: it once picked Config.NoWarmup
		if k == CMCP && rng.Intn(2) == 0 {
			cfg.Policy.P = rng.Float64()
		}
		if cfg.Tables == vm.PSPTKind && rng.Intn(4) == 0 {
			rng.Intn(400_000) // no-op slot; its draws keep the seeded configs stable
		}
		// No-op slots: these draws once picked adaptive page sizing and
		// fault injection. They stay so the other configs keep their
		// seeded values.
		slot := rng.Intn(5) == 0
		if cfg.PageSize == sim.Size4k && !slot && rng.Intn(3) == 0 {
			rng.Uint64()
			rng.Float64()
		}
		variants = append(variants, variant{fmt.Sprintf("rand%02d/%v", i, k), cfg})
	}

	if testing.Short() {
		// Every 5th configuration: three matrix cells, both hist settings
		// among them, plus a sample of the random draws.
		var subset []variant
		for i := 0; i < len(variants); i += 5 {
			subset = append(subset, variants[i])
		}
		variants = subset
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) { runBoth(t, v.cfg) })
	}
}

// TestParallelRunManyGoroutineBound runs a parallel-engine sweep and
// checks the process's live goroutine count stays bounded by the sweep
// parallelism plus the global GOMAXPROCS budget of probe workers — inner
// engines must share one pool, not spawn workers·runs goroutines.
func TestParallelRunManyGoroutineBound(t *testing.T) {
	base := runtime.NumGoroutine()
	var cfgs []Config
	for seed := uint64(0); seed < 12; seed++ {
		cfg := goldenConfig()
		cfg.Workload = workload.SCALE().Scale(0.02)
		cfg.Policy = PolicySpec{Kind: FIFO, P: -1}
		cfg.Seed = seed
		cfg.Engine = ParallelEngine
		cfgs = append(cfgs, cfg)
	}
	parallelism := 4
	limit := base + parallelism + runtime.GOMAXPROCS(0) + 5 // slack: RunMany plumbing + this monitor
	quit := make(chan struct{})
	peakCh := make(chan int)
	go func() {
		peak := 0
		for {
			select {
			case <-quit:
				peakCh <- peak
				return
			default:
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	if _, err := RunMany(cfgs, parallelism); err != nil {
		t.Fatal(err)
	}
	close(quit)
	peak := <-peakCh
	if peak > limit {
		t.Errorf("goroutine peak %d exceeds bound %d (base %d, parallelism %d, GOMAXPROCS %d)",
			peak, limit, base, parallelism, runtime.GOMAXPROCS(0))
	}
}
