package main

import (
	"fmt"
	"time"

	"cmcp"
	"cmcp/internal/stats"
	"cmcp/internal/workload"
)

// drainReps is how many times the traced run builds each config's layout
// and drains its streams; the workload metrics take the median.
const drainReps = 3

// streamsOf builds bc's layout and returns the streams one Simulate
// consumes: the warm-up streams, then the measured streams of seed.
func streamsOf(bc benchConfig, seed uint64) ([]workload.Stream, error) {
	if bc.cfg.Tenants != nil {
		tl, err := bc.cfg.Tenants.Build(bc.cfg.Cores)
		if err != nil {
			return nil, err
		}
		return append(tl.WarmupStreams(), tl.Streams(seed)...), nil
	}
	l, err := bc.cfg.Workload.Build(bc.cfg.Cores)
	if err != nil {
		return nil, err
	}
	return append(l.WarmupStreams(), l.Streams(seed)...), nil
}

// drain times one layout build and one full drain of bc's streams
// through the public Stream API, returning the build and drain times and
// the number of accesses drained.
func drain(tr *tracer, bc benchConfig, seed uint64) (build, next time.Duration, accesses int, err error) {
	tr.startCall(spanBuild, true)
	t0 := time.Now()
	streams, err := streamsOf(bc, seed)
	build = time.Since(t0)
	tr.end()
	if err != nil {
		return 0, 0, 0, err
	}
	tr.startCall(spanDrain, true)
	t0 = time.Now()
	for _, s := range streams {
		for _, ok := s.Next(); ok; _, ok = s.Next() {
			accesses++
		}
	}
	next = time.Since(t0)
	tr.end()
	return build, next, accesses, nil
}

// traced is the traced run. Each pass makes, per config, one plain call,
// one call with the policy behind the span decorator and one call on the
// parallel engine, all checked against the same fingerprint; then it
// times layout builds and stream drains. It returns the per-layer
// metrics and the recorded spans.
func (r *runner) traced(budget time.Duration) (metricSet, []Span, error) {
	if _, err := r.setup(time.Now()); err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	n := len(r.cfgs)
	plain := make([][]time.Duration, n)
	par := make([][]time.Duration, n)
	tracedWall := make([][]time.Duration, n)
	tallies := make([][]tally, n)
	results := make([]*cmcp.Result, n)
	tracedCfgs := make([]cmcp.Config, n)
	for i, bc := range r.cfgs {
		var err error
		if tracedCfgs[i], err = tracedConfig(bc, r.pages[i], tr); err != nil {
			return nil, nil, err
		}
	}
	err := rounds(budget, func(pass int) error {
		for i, bc := range r.cfgs {
			s, res := r.call(i, bc.cfg)
			plain[i] = append(plain[i], s.wall)
			if results[i] == nil {
				results[i] = res
			}

			tr.recalibrate()
			before := tr.tally
			tr.startCall(spanSimulate, pass == 0)
			s, _ = r.call(i, tracedCfgs[i])
			if tr.tickLeft != 0 {
				return fmt.Errorf("%s: a scanner tick did not tick each of the %d policies once", bc.key(r.wl.name), tr.policies)
			}
			tr.end()
			tracedWall[i] = append(tracedWall[i], s.wall)
			tallies[i] = append(tallies[i], tr.tally.sub(before))

			cfg := bc.cfg
			cfg.Engine = cmcp.ParallelEngine
			s, _ = r.call(i, cfg)
			par[i] = append(par[i], s.wall)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	m := metricSet{}
	var sumPlain, sumTraced, sumPar, builds, drains float64
	var accesses int
	for i, bc := range r.cfgs {
		var b, d []time.Duration
		var acc int
		for k := 0; k < drainReps; k++ {
			bt, dt, a, derr := drain(tr, bc, r.seed)
			if derr != nil {
				return nil, nil, derr
			}
			b, d, acc = append(b, bt), append(d, dt), a
		}
		builds += median(b)
		drains += median(d)
		accesses += acc

		sumPlain += median(plain[i])
		sumTraced += median(tracedWall[i])
		sumPar += median(par[i])

		// Per traced call: the span figures; per config: their medians.
		calls := make([]metricSet, len(tallies[i]))
		for j, t := range tallies[i] {
			calls[j] = layerFigures(t, tracedWall[i][j], median(d))
		}
		for name := range calls[0] {
			xs := make([]float64, len(calls))
			for j, c := range calls {
				xs[j] = c[name]
			}
			m[name] += median(xs)
		}
	}
	m["vm.scan_accessed_hit_ratio"] = 0
	if calls := m["vm.scan_accessed_calls"]; calls > 0 {
		m["vm.scan_accessed_hit_ratio"] = m[scanHits] / calls
	}
	delete(m, scanHits)
	m["workload.next_ns"] = drains / float64(accesses)
	m["workload.build_s"] = builds / 1e9
	m["machine.engine_ns_per_touch"] = m["machine.engine_self_s"] * 1e9 / float64(accesses)
	m["machine.parallel_speedup"] = sumPlain / sumPar
	m["trace.overhead_frac"] = sumTraced/sumPlain - 1
	counterMetrics(m, results)
	return m, tr.spans, nil
}

// scanHits is the working name of the ScanAccessed true-return count,
// which the traced run turns into vm.scan_accessed_hit_ratio.
const scanHits = "vm.scan_accessed_hits"

// layerFigures turns one traced call's tally into per-layer figures:
// span times scaled from the timed sample, exact call counts, and the
// engine residual — the call's wall time minus the policy spans and the
// calibrated stream time (streamNS), which leaves the engine, vm access,
// tlb, pagetable, pspt and mem together.
func layerFigures(t tally, wall time.Duration, streamNS float64) metricSet {
	est := func(k spanKind) float64 { return t.estimate(&t.total, k) / 1e9 }
	var policy, self float64
	for _, k := range []spanKind{spanTick, spanVictim, spanPTESetup, spanRemove} {
		policy += est(k)
		self += t.estimate(&t.self, k) / 1e9
	}
	return metricSet{
		"policy.tick_s":           est(spanTick),
		"policy.tick_calls":       float64(t.tickCalls),
		"policy.victim_s":         est(spanVictim),
		"policy.victim_calls":     float64(t.calls[spanVictim]),
		"policy.ptesetup_s":       est(spanPTESetup),
		"policy.ptesetup_calls":   float64(t.calls[spanPTESetup]),
		"policy.remove_s":         est(spanRemove),
		"policy.self_s":           self,
		"vm.scan_accessed_s":      est(spanScan),
		"vm.scan_accessed_calls":  float64(t.calls[spanScan]),
		scanHits:                  float64(t.scanHits),
		"vm.core_map_count_calls": float64(t.coreMapCalls),
		"machine.engine_self_s":   wall.Seconds() - policy - streamNS/1e9,
	}
}

// counterMetrics adds the simulated component counters of one pass:
// the measured-phase totals of each config's first correct call.
func counterMetrics(m metricSet, results []*cmcp.Result) {
	counters := map[string]stats.Counter{
		"tlb.dtlb_misses":             stats.DTLBMisses,
		"pagetable.page_walks":        stats.PageWalks,
		"vm.page_faults":              stats.PageFaults,
		"vm.minor_faults":             stats.MinorFaults,
		"vm.evictions":                stats.Evictions,
		"vm.write_backs":              stats.WriteBacks,
		"vm.lock_wait_cycles":         stats.LockWaitCycles,
		"vm.remote_tlb_invalidations": stats.RemoteTLBInvalidations,
		"vm.ipis_sent":                stats.IPIsSent,
		"policy.scan_clears":          stats.ScanClears,
	}
	var touches, fairness float64
	for name := range counters {
		m[name] = 0
	}
	m["tenants.evictions_caused"] = 0
	for _, res := range results {
		if res == nil {
			continue
		}
		for name, c := range counters {
			m[name] += float64(total(res, c))
		}
		touches += float64(total(res, stats.Touches))
		// A single-tenant machine is one tenant: Jain's index is 1 and
		// no other tenant can be evicted.
		f := 1.0
		if ts := res.Run.Tenants; ts != nil {
			f = ts.FairnessIndex()
			m["tenants.evictions_caused"] += float64(ts.Total(stats.TenantEvictionsCaused))
		}
		fairness += f / float64(len(results))
	}
	m["tlb.hit_ratio"] = 0
	if touches > 0 {
		m["tlb.hit_ratio"] = 1 - m["tlb.dtlb_misses"]/touches
	}
	m["tenants.fairness_index"] = fairness
}
