package machine

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cmcp/internal/check"
	"cmcp/internal/obs"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/trace"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

// TestAuditGoldenVariants runs every golden configuration with the
// invariant auditor attached. The variants cover all six policies,
// both table kinds and all three page sizes, so a zero-violation sweep
// here certifies that the four bookkeeping views stay synchronized
// across every engine feature the golden table pins.
func TestAuditGoldenVariants(t *testing.T) {
	for name, cfg := range goldenVariants() {
		t.Run(name, func(t *testing.T) {
			aud := check.New(check.Config{Every: 2048})
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
}

// TestAuditDoesNotPerturbResults proves the auditor's read-only claim:
// an audited run must be bit-identical to an unaudited one.
func TestAuditDoesNotPerturbResults(t *testing.T) {
	cfg := goldenVariants()["CMCP"]
	plain, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Audit = check.New(check.Config{Every: 64})
	audited, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Runtime != audited.Runtime {
		t.Errorf("runtime %d with audit, %d without", audited.Runtime, plain.Runtime)
	}
	for c := 0; c < stats.NumCounters; c++ {
		if a, b := audited.Run.Total(stats.Counter(c)), plain.Run.Total(stats.Counter(c)); a != b {
			t.Errorf("%s = %d with audit, %d without", stats.Counter(c).Name(), a, b)
		}
	}
}

// TestAuditRandomConfigs is the randomized property harness: short
// audited simulations across random points of the configuration space
// (cores × page size × tables × policy × memory ratio × seed). Every
// run must complete without an error and without a single invariant
// violation.
func TestAuditRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	kinds := []PolicyKind{FIFO, LRU, CMCP, CLOCK, LFU, Random}
	sizes := []sim.PageSize{sim.Size4k, sim.Size64k, sim.Size2M}
	tables := []vm.TableKind{vm.PSPTKind, vm.RegularPT}
	const runs = 60
	for i := 0; i < runs; i++ {
		cores := 1 << rng.Intn(4) // 1, 2, 4 or 8
		pages := 256 + rng.Intn(512)
		var wl workload.Spec
		switch rng.Intn(3) {
		case 0:
			wl = workload.Private(pages, 4000)
		case 1:
			wl = workload.SharedAll(pages, 4000, cores)
		default:
			wl = workload.Uniform(pages, 4000)
		}
		cfg := Config{
			Cores:       cores,
			Workload:    wl,
			MemoryRatio: 0.3 + 0.7*rng.Float64(),
			PageSize:    sizes[rng.Intn(len(sizes))],
			Tables:      tables[rng.Intn(len(tables))],
			Policy:      PolicySpec{Kind: kinds[rng.Intn(len(kinds))], P: -1},
			Seed:        rng.Uint64(),
			Verify:      true,
			Audit:       check.New(check.Config{Every: 256}),
		}
		if cfg.Tables == vm.PSPTKind {
			// No-op slots: features deleted since these draws were added
			// (adaptive sizing, PSPT rebuild). The draws keep the seeded
			// configs stable.
			rng.Intn(4)
			rng.Intn(4)
		}
		desc := func() string {
			return cfg.Policy.Kind.String() + "/" + cfg.Tables.String() + "/" + cfg.PageSize.String()
		}
		if _, err := Simulate(cfg); err != nil {
			t.Errorf("config %d (%s, %d cores, ratio %.2f, seed %d): %v",
				i, desc(), cfg.Cores, cfg.MemoryRatio, cfg.Seed, err)
			continue
		}
		if cfg.Audit.Audits() == 0 {
			t.Errorf("config %d (%s): auditor never ran", i, desc())
		}
	}
}

// randomVariant is one named configuration of randomVariants.
type randomVariant struct {
	name string
	cfg  Config
}

// randomVariants returns 48 configurations: a 12-cell matrix (six
// policies × hist on/off) plus 36 seeded draws over cores, scale,
// memory ratio, page size, table kind and seed. Under -short it keeps
// every 5th one.
func randomVariants() []randomVariant {
	var variants []randomVariant
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
			variants = append(variants, randomVariant{fmt.Sprintf("%v/hist=%v", k, withHist), cfg})
		}
	}
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
		variants = append(variants, randomVariant{fmt.Sprintf("rand%02d/%v", i, k), cfg})
	}
	if testing.Short() {
		// Every 5th configuration: three matrix cells, both hist
		// settings among them, plus a sample of the random draws.
		var subset []randomVariant
		for i := 0; i < len(variants); i += 5 {
			subset = append(subset, variants[i])
		}
		variants = subset
	}
	return variants
}

// TestAuditedRandomConfigs runs the randomVariants configurations with
// the Verify checker, the invariant auditor and a flight recorder
// attached, and requires each to complete without a violation and to
// match the same run with all three detached bit for bit: per-core
// counters, finish times, histograms, runtime, resident count and
// sharing histogram.
func TestAuditedRandomConfigs(t *testing.T) {
	for _, v := range randomVariants() {
		t.Run(v.name, func(t *testing.T) {
			plain, err := Simulate(v.cfg)
			if err != nil {
				t.Fatalf("plain: %v", err)
			}
			cfg := v.cfg
			cfg.Verify = true
			cfg.Audit = check.New(check.Config{})
			cfg.Probe = obs.NewRecorder(obs.Config{})
			res, err := Simulate(cfg)
			if err != nil {
				t.Fatalf("instrumented: %v", err)
			}
			if cfg.Audit.Audits() == 0 {
				t.Error("auditor never ran")
			}
			if res.Runtime != plain.Runtime || res.Resident != plain.Resident || !slices.Equal(res.Sharing, plain.Sharing) {
				t.Errorf("instrumented run: runtime %d, resident %d, sharing %v; plain run: %d, %d, %v",
					res.Runtime, res.Resident, res.Sharing, plain.Runtime, plain.Resident, plain.Sharing)
			}
			if a, b := runJSON(t, res.Run), runJSON(t, plain.Run); !bytes.Equal(a, b) {
				t.Error("instrumented and plain runs differ in counters, finish times or histograms")
			}
		})
	}
}

// TestParallelDifferential pins ParallelEngine's contract while the
// name lasts: on every randomVariants configuration, a run with
// Config.Engine = ParallelEngine matches the SerialEngine run bit for
// bit, flight-recorder event sequence included. Both names select the
// one event loop (see EngineKind); ROADMAP item 12 deletes the names
// and this test with them.
func TestParallelDifferential(t *testing.T) {
	for _, v := range randomVariants() {
		t.Run(v.name, func(t *testing.T) {
			run := func(eng EngineKind) (*Result, *obs.Recorder) {
				cfg := v.cfg
				cfg.Engine = eng
				cfg.Probe = obs.NewRecorder(obs.Config{})
				res, err := Simulate(cfg)
				if err != nil {
					t.Fatalf("%v: %v", eng, err)
				}
				return res, cfg.Probe
			}
			serial, sRec := run(SerialEngine)
			parallel, pRec := run(ParallelEngine)
			if serial.Runtime != parallel.Runtime || serial.Resident != parallel.Resident || !slices.Equal(serial.Sharing, parallel.Sharing) {
				t.Errorf("parallel: runtime %d, resident %d, sharing %v; serial: %d, %d, %v",
					parallel.Runtime, parallel.Resident, parallel.Sharing, serial.Runtime, serial.Resident, serial.Sharing)
			}
			if a, b := runJSON(t, serial.Run), runJSON(t, parallel.Run); !bytes.Equal(a, b) {
				t.Error("engines differ in counters, finish times or histograms")
			}
			if !slices.Equal(sRec.Events(), pRec.Events()) || sRec.Dropped() != pRec.Dropped() {
				t.Error("engines differ in flight-recorder events")
			}
		})
	}
}

// TestAuditFIFODifferentialReplay cross-validates the live engine
// against the offline replayer: for a single-core FIFO run the
// simulator's measured fault count must equal what internal/trace
// computes by replaying the warm-up records followed by the measured
// records through the same policy at the same capacity, minus the
// faults of the warm-up records alone. FIFO's state after a prefix is
// deterministic, so the difference is exact, and it also covers the
// warm-up barrier and the counter rebase (Run.Rebase). TLBs, costs
// and locks must not change *which* accesses fault.
func TestAuditFIFODifferentialReplay(t *testing.T) {
	wl := workload.Uniform(400, 6000)
	const seed = 9
	layout, err := wl.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	warm := &trace.Trace{Cores: 1}
	for s := layout.WarmupStreams()[0]; ; {
		a, ok := s.Next()
		if !ok {
			break
		}
		warm.Records = append(warm.Records, trace.Record{VPN: a.VPN, Write: a.Write})
	}
	measured := trace.Capture(layout, seed)
	whole := &trace.Trace{Cores: 1, Records: append(slices.Clip(warm.Records), measured.Records...)}

	cfg := Config{
		Cores:       1,
		Workload:    wl,
		MemoryRatio: 0.5,
		PageSize:    sim.Size4k,
		Tables:      vm.PSPTKind,
		Policy:      PolicySpec{Kind: FIFO, P: -1},
		Seed:        seed,
		Audit:       check.New(check.Config{Every: 512}),
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := func(tr *trace.Trace) uint64 {
		n, err := trace.CountFaults(tr, res.Frames, sim.Size4k, policy.NewFIFO())
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	warmFaults := count(warm)
	if warmFaults == 0 {
		t.Fatal("warm-up records fault nowhere; the prefix tests nothing")
	}
	want := count(whole) - warmFaults
	if got := res.Run.Total(stats.PageFaults); got != want {
		t.Errorf("live simulation faulted %d times in the measured phase, offline replay says %d (%d with warm-up, %d in it)",
			got, want, want+warmFaults, warmFaults)
	}
}
