package main

import (
	"fmt"
	"runtime"
	"time"

	"cmcp"
)

// setupRounds is how many times an untraced run sets up; setup_s is the
// median round. The first round starts at process start.
const setupRounds = 3

// runner drives one workload's configs: one goroutine, the serial
// engine, each Simulate issued only after the previous one returned.
type runner struct {
	wl    benchWorkload
	seed  uint64
	cfgs  []benchConfig
	pages []int // laid-out footprint per config
	chk   *checker
	log   func(string, ...any)
}

// setup builds every layout, loads the pinned fingerprints and makes one
// checked, untimed Simulate per config so heap growth settles before
// timing. It returns the round's duration measured from start.
func (r *runner) setup(start time.Time) (time.Duration, error) {
	pins, err := loadPins()
	if err != nil {
		return 0, err
	}
	if r.chk == nil {
		r.chk = newChecker(pins, r.seed, r.log)
	}
	r.cfgs = r.wl.configs(r.seed)
	r.pages = make([]int, len(r.cfgs))
	for i, bc := range r.cfgs {
		if r.pages[i], err = bc.pages(); err != nil {
			return 0, fmt.Errorf("%s: %w", bc.key(r.wl.name), err)
		}
	}
	runtime.GC()
	for i, bc := range r.cfgs {
		res, err := cmcp.Simulate(bc.cfg)
		r.chk.check(bc.key(r.wl.name), bc, r.pages[i], res, err)
	}
	return time.Since(start), nil
}

// call runs one checked Simulate of config i and returns its wall time,
// allocation deltas and result (nil when the call failed).
func (r *runner) call(i int, cfg cmcp.Config) (sample, *cmcp.Result) {
	var m0, m1 runtime.MemStats
	// Every call starts from a collected heap, so its time does not
	// depend on how much garbage the previous call left behind.
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := cmcp.Simulate(cfg)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	bc := r.cfgs[i]
	if !r.chk.check(bc.key(r.wl.name), bc, r.pages[i], res, err) {
		res = nil
	}
	return sample{wall: wall, mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}, res
}

// sample is one timed call.
type sample struct {
	wall           time.Duration
	mallocs, bytes uint64
}

// rounds runs passes over the configs while another pass, as long as the
// last one, still ends within budget; it always runs at least one pass
// and stops at the first error. pass receives the pass index.
func rounds(budget time.Duration, pass func(n int) error) error {
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || time.Since(start)+last <= budget; n++ {
		t0 := time.Now()
		if err := pass(n); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	return nil
}

// measure is the untraced run: setupRounds set-ups, then passes over the
// configs for budget, and the end-to-end metrics.
func (r *runner) measure(budget time.Duration, processStart time.Time) (metricSet, error) {
	setups := make([]time.Duration, setupRounds)
	for k := range setups {
		start := time.Now()
		if k == 0 {
			start = processStart
		}
		d, err := r.setup(start)
		if err != nil {
			return nil, err
		}
		setups[k] = d
	}
	samples := make([][]sample, len(r.cfgs))
	results := make([]*cmcp.Result, len(r.cfgs))
	rounds(budget, func(int) error {
		for i, bc := range r.cfgs {
			s, res := r.call(i, bc.cfg)
			samples[i] = append(samples[i], s)
			if results[i] == nil {
				results[i] = res
			}
		}
		return nil
	})
	var touches, wall, allocs, bytes, cycles float64
	for i := range r.cfgs {
		var walls []time.Duration
		var mallocs, allocBytes []uint64
		for _, s := range samples[i] {
			walls = append(walls, s.wall)
			mallocs = append(mallocs, s.mallocs)
			allocBytes = append(allocBytes, s.bytes)
		}
		wall += median(walls)
		allocs += median(mallocs)
		bytes += median(allocBytes)
		if res := results[i]; res != nil {
			touches += float64(res.Run.Total(cmcp.Touches))
			cycles += float64(res.Runtime)
		}
	}
	return metricSet{
		"touches_per_s":      touches / (wall / 1e9),
		"setup_s":            median(setups) / 1e9,
		"peak_rss_mb":        peakRSSBytes() / 1e6,
		"allocs_per_run":     allocs,
		"alloc_mb_per_run":   bytes / 1e6,
		"sim_runtime_cycles": cycles,
		"ok_runs_frac":       float64(r.chk.attempted-r.chk.failed) / float64(r.chk.attempted),
	}, nil
}
