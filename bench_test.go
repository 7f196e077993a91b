// Benchmarks regenerating each of the paper's evaluation artifacts
// (Figures 6-10 and Table 1) plus simulator micro-benchmarks. The
// experiment benches run at a reduced scale so `go test -bench=.`
// completes in minutes; cmd/cmcpsim -exp all reproduces the full-scale
// numbers recorded in EXPERIMENTS.md.
package cmcp_test

import (
	"testing"

	"cmcp"
	"cmcp/internal/sim"
)

// benchOpts is the reduced-scale configuration used by the experiment
// benchmarks.
func benchOpts() cmcp.ExperimentOptions {
	return cmcp.ExperimentOptions{Scale: 0.1, Quick: true, Seed: 42}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := cmcp.RunExperiment(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkFig6 regenerates the page-sharing distributions (Figure 6).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates the policy/page-table scalability
// comparison (Figure 7).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates the memory-constraint sensitivity curves
// (Figure 8).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates the CMCP ratio sweep (Figure 9).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates the page-size study (Figure 10).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkTable1 regenerates the per-core event counts (Table 1).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// benchSimulate measures raw simulation throughput for one policy:
// simulated page touches per second of wall time.
func benchSimulate(b *testing.B, pol cmcp.PolicySpec, tables cmcp.TableKind) {
	b.Helper()
	cfg := cmcp.Config{
		Cores:       56,
		Workload:    cmcp.SCALE().Scale(0.1),
		MemoryRatio: 0.5,
		Tables:      tables,
		Policy:      pol,
		Seed:        1,
	}
	b.ResetTimer()
	var touches uint64
	for i := 0; i < b.N; i++ {
		res, err := cmcp.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		touches += res.Run.Total(cmcp.Touches)
	}
	b.ReportMetric(float64(touches)/b.Elapsed().Seconds(), "touches/s")
}

// BenchmarkSimulateFIFO measures engine throughput under FIFO + PSPT.
func BenchmarkSimulateFIFO(b *testing.B) {
	benchSimulate(b, cmcp.PolicySpec{Kind: cmcp.FIFO}, cmcp.PSPT)
}

// BenchmarkSimulateLRU measures engine throughput with the scanner
// running (the heaviest configuration).
func BenchmarkSimulateLRU(b *testing.B) {
	benchSimulate(b, cmcp.PolicySpec{Kind: cmcp.LRU}, cmcp.PSPT)
}

// BenchmarkSimulateCMCP measures engine throughput under the paper's
// policy.
func BenchmarkSimulateCMCP(b *testing.B) {
	benchSimulate(b, cmcp.PolicySpec{Kind: cmcp.CMCP, P: 0.875}, cmcp.PSPT)
}

// BenchmarkSimulateRegularPT measures engine throughput with broadcast
// shootdowns (regular shared page tables).
func BenchmarkSimulateRegularPT(b *testing.B) {
	benchSimulate(b, cmcp.PolicySpec{Kind: cmcp.FIFO}, cmcp.RegularPT)
}

// benchTraceCfg is the shared configuration of the tracing-overhead
// benchmark pair below.
func benchTraceCfg() cmcp.Config {
	return cmcp.Config{
		Cores:       56,
		Workload:    cmcp.SCALE().Scale(0.1),
		MemoryRatio: 0.5,
		Tables:      cmcp.PSPT,
		Policy:      cmcp.PolicySpec{Kind: cmcp.CMCP, P: 0.875},
		Seed:        1,
	}
}

// BenchmarkSimulateTraceDisabled is the flight-recorder overhead
// guard's baseline: the identical run with Probe nil, where every
// instrumented site costs exactly one nil-check branch. Compare
// against BenchmarkSimulateTraceEnabled (and against the pre-probe
// BenchmarkSimulateCMCP history): the disabled path must stay within
// noise (≤2%) of the seed baseline.
func BenchmarkSimulateTraceDisabled(b *testing.B) {
	cfg := benchTraceCfg()
	b.ResetTimer()
	var touches uint64
	for i := 0; i < b.N; i++ {
		res, err := cmcp.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		touches += res.Run.Total(cmcp.Touches)
	}
	b.ReportMetric(float64(touches)/b.Elapsed().Seconds(), "touches/s")
}

// BenchmarkSimulateTraceEnabled measures the same run with the flight
// recorder and sampler live — the price of full observability.
func BenchmarkSimulateTraceEnabled(b *testing.B) {
	cfg := benchTraceCfg()
	rec := cmcp.NewRecorder(cmcp.RecorderConfig{SampleEvery: 100_000})
	cfg.Probe = rec
	b.ResetTimer()
	var touches, events uint64
	for i := 0; i < b.N; i++ {
		rec.Reset()
		res, err := cmcp.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		touches += res.Run.Total(cmcp.Touches)
		events += uint64(len(rec.Events())) + rec.Dropped()
	}
	b.ReportMetric(float64(touches)/b.Elapsed().Seconds(), "touches/s")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkSimulateHistDisabled is the histogram overhead guard's
// baseline: the identical run with Config.Hist false, where every
// instrumented site costs exactly one nil-check branch. The perf-smoke
// CI job runs this next to BenchmarkSimulateHistEnabled; the disabled
// path must stay within noise (<3%) of the pre-histogram baseline.
func BenchmarkSimulateHistDisabled(b *testing.B) {
	benchHist(b, false)
}

// BenchmarkSimulateHistEnabled measures the same run with the latency
// histograms recording — the price of distribution telemetry.
func BenchmarkSimulateHistEnabled(b *testing.B) {
	benchHist(b, true)
}

func benchHist(b *testing.B, enabled bool) {
	b.Helper()
	cfg := benchTraceCfg()
	cfg.Hist = enabled
	b.ResetTimer()
	var touches uint64
	for i := 0; i < b.N; i++ {
		res, err := cmcp.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		touches += res.Run.Total(cmcp.Touches)
	}
	b.ReportMetric(float64(touches)/b.Elapsed().Seconds(), "touches/s")
}

// BenchmarkAblationNoPSPT quantifies the PSPT design choice from
// DESIGN.md: identical workload and policy, regular tables vs PSPT.
// The reported metric is the simulated runtime ratio (regular/PSPT) —
// the factor the per-core tables buy at 56 cores.
func BenchmarkAblationNoPSPT(b *testing.B) {
	mk := func(tables cmcp.TableKind) cmcp.Config {
		return cmcp.Config{
			Cores:       56,
			Workload:    cmcp.BT().Scale(0.1),
			MemoryRatio: cmcp.Constraint("bt.B"),
			Tables:      tables,
			Policy:      cmcp.PolicySpec{Kind: cmcp.FIFO},
			Seed:        1,
		}
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		results, err := cmcp.RunMany([]cmcp.Config{mk(cmcp.RegularPT), mk(cmcp.PSPT)}, 0)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(results[0].Runtime) / float64(results[1].Runtime)
	}
	b.ReportMetric(ratio, "regular/PSPT-runtime")
}

// BenchmarkDynamicP quantifies the dynamic-p tuner (the paper's future
// work) against the hand-tuned static p.
func BenchmarkDynamicP(b *testing.B) {
	static := cmcp.Config{
		Cores:       56,
		Workload:    cmcp.LU().Scale(0.1),
		MemoryRatio: cmcp.Constraint("lu.B"),
		Tables:      cmcp.PSPT,
		Policy:      cmcp.PolicySpec{Kind: cmcp.CMCP, P: 0.625},
		Seed:        1,
	}
	dynamic := static
	dynamic.Policy = cmcp.PolicySpec{Kind: cmcp.CMCP, P: 0.5, DynamicP: true}
	var ratio float64
	for i := 0; i < b.N; i++ {
		results, err := cmcp.RunMany([]cmcp.Config{dynamic, static}, 0)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(results[0].Runtime) / float64(results[1].Runtime)
	}
	b.ReportMetric(ratio, "dynamic/static-runtime")
}

// BenchmarkKNLInterconnect compares the KNC (PCIe) and KNL (on-package
// near/far memory) transfer models under the same constraint — the
// paper's conclusion expects, and this confirms, that faster links
// raise absolute performance while CMCP's shootdown-avoidance
// advantage persists.
func BenchmarkKNLInterconnect(b *testing.B) {
	mk := func(cost sim.CostModel, kind cmcp.PolicyKind) cmcp.Config {
		return cmcp.Config{
			Cores:       56,
			Workload:    cmcp.BT().Scale(0.1),
			MemoryRatio: cmcp.Constraint("bt.B"),
			Tables:      cmcp.PSPT,
			Policy:      cmcp.PolicySpec{Kind: kind, P: 0.5},
			Cost:        cost,
			Seed:        1,
		}
	}
	var speedup, margin float64
	for i := 0; i < b.N; i++ {
		results, err := cmcp.RunMany([]cmcp.Config{
			mk(sim.DefaultCostModel(), cmcp.FIFO),
			mk(sim.KNLCostModel(), cmcp.FIFO),
			mk(sim.KNLCostModel(), cmcp.CMCP),
		}, 0)
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(results[0].Runtime) / float64(results[1].Runtime)
		margin = float64(results[1].Runtime)/float64(results[2].Runtime) - 1
	}
	b.ReportMetric(speedup, "knc/knl-runtime")
	b.ReportMetric(100*margin, "knl-cmcp-gain-%")
}
