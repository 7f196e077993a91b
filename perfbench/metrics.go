package main

import (
	"slices"
	"time"
)

// metricDef declares one reported metric; BENCHMARK.json mirrors these
// tables (a test keeps them in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports: what a user of the
// simulator sees.
var endToEnd = []metricDef{
	{"touches_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"allocs_per_run", "count", "lower"},
	{"alloc_mb_per_run", "MB", "lower"},
	{"sim_runtime_cycles", "cycles", "lower"},
	{"ok_runs_frac", "fraction", "higher"},
}

// perLayer are the metrics a traced run reports, one or more per layer.
var perLayer = []metricDef{
	{"policy.tick_s", "s", "lower"},
	{"policy.tick_calls", "count", "lower"},
	{"policy.victim_s", "s", "lower"},
	{"policy.victim_calls", "count", "lower"},
	{"policy.ptesetup_s", "s", "lower"},
	{"policy.ptesetup_calls", "count", "lower"},
	{"policy.remove_s", "s", "lower"},
	{"policy.self_s", "s", "lower"},
	{"vm.scan_accessed_s", "s", "lower"},
	{"vm.scan_accessed_calls", "count", "lower"},
	{"vm.scan_accessed_hit_ratio", "ratio", "higher"},
	{"vm.core_map_count_calls", "count", "lower"},
	{"workload.next_ns", "ns", "lower"},
	{"workload.build_s", "s", "lower"},
	{"machine.engine_self_s", "s", "lower"},
	{"machine.engine_ns_per_touch", "ns", "lower"},
	{"machine.parallel_speedup", "x", "higher"},
	{"trace.overhead_frac", "fraction", "lower"},
	{"tlb.dtlb_misses", "count", "lower"},
	{"tlb.hit_ratio", "ratio", "higher"},
	{"pagetable.page_walks", "count", "lower"},
	{"vm.page_faults", "count", "lower"},
	{"vm.minor_faults", "count", "lower"},
	{"vm.evictions", "count", "lower"},
	{"vm.write_backs", "count", "lower"},
	{"vm.lock_wait_cycles", "cycles", "lower"},
	{"vm.remote_tlb_invalidations", "count", "lower"},
	{"vm.ipis_sent", "count", "lower"},
	{"policy.scan_clears", "count", "lower"},
	{"tenants.fairness_index", "ratio", "higher"},
	{"tenants.evictions_caused", "count", "lower"},
}

func defOf(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects values by name; emit attaches each def's unit and
// panics on a name no table declares, or a declared one left unset.
type metricSet map[string]float64

func (m metricSet) emit(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			panic("perfbench: metric " + d.name + " not measured")
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(m) != len(defs) {
		panic("perfbench: undeclared metric measured")
	}
	return out
}

// median returns the median of xs (the mean of the middle pair when
// the count is even); xs is not modified.
func median[T uint64 | float64 | time.Duration](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return (float64(s[n/2-1]) + float64(s[n/2])) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same method as Python's statistics.quantiles(xs, n=4)
// (exclusive), which the run-to-run spread checks use.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// Python's exclusive method, clamping included.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}
