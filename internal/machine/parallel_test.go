package machine

import (
	"strings"
	"sync"
	"testing"

	"cmcp/internal/policy"
	"cmcp/internal/sim"
)

// These tests pin RunMany's batch contract: edge-case inputs (empty
// grids, more workers than runs) behave sensibly, a panicking custom
// policy fails only its own slot, and the RunManyNotify completion hook
// fires exactly once per run.

func TestRunManyZeroConfigs(t *testing.T) {
	results, err := RunMany(nil, 4)
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if results == nil || len(results) != 0 {
		t.Fatalf("results = %v, want empty non-nil slice", results)
	}
}

func TestRunManyClampsParallelism(t *testing.T) {
	// More workers than runs must not deadlock or drop runs; results
	// stay in input order and match a serial execution bit for bit.
	cfgs := []Config{quickCfg(), quickCfg()}
	cfgs[1].Seed = 2
	wide, err := RunMany(cfgs, 64)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunMany(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if wide[i].Runtime != serial[i].Runtime {
			t.Errorf("run %d: runtime %d (parallel) != %d (serial)", i, wide[i].Runtime, serial[i].Runtime)
		}
	}
}

// panickyPolicy panics on its first victim request.
type panickyPolicy struct{ policy.Policy }

func (panickyPolicy) Victim() (sim.PageID, bool) { panic("policy exploded") }

func TestRunManyPanicRecovered(t *testing.T) {
	good := errConfig(nil)
	good.Policy = PolicySpec{Kind: FIFO, P: -1}
	bad := errConfig(func(policy.Host) policy.Policy {
		return panickyPolicy{policy.NewFIFO()}
	})
	results, err := RunMany([]Config{good, bad, good}, 1)
	if err == nil {
		t.Fatal("panicking policy produced no error")
	}
	for _, frag := range []string{"run 1", "custom", "panicked", "policy exploded"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error does not mention %q:\n%v", frag, err)
		}
	}
	if results[1] != nil {
		t.Error("panicked run returned a result")
	}
	// The panic must not take sibling runs down with it — including the
	// run the panicked worker executes next.
	for _, i := range []int{0, 2} {
		if results[i] == nil || results[i].Runtime == 0 {
			t.Errorf("sibling run %d did not survive the panic", i)
		}
	}
}

func TestRunManyNotifyFiresOncePerRun(t *testing.T) {
	good := errConfig(nil)
	good.Policy = PolicySpec{Kind: FIFO, P: -1}
	bad := errConfig(func(policy.Host) policy.Policy {
		return stubbornPolicy{policy.NewFIFO()}
	})
	cfgs := []Config{good, bad, good, good}

	var mu sync.Mutex
	calls := make(map[int]int)
	sawErr := make(map[int]bool)
	results, err := RunManyNotify(cfgs, 2, func(i int, res *Result, err error) {
		mu.Lock()
		defer mu.Unlock()
		calls[i]++
		sawErr[i] = err != nil
		if (res == nil) == (err == nil) {
			t.Errorf("run %d: notify got res=%v err=%v, want exactly one", i, res, err)
		}
	})
	if err == nil {
		t.Fatal("want aggregated error from run 1")
	}
	if len(calls) != len(cfgs) {
		t.Fatalf("notify covered %d runs, want %d", len(calls), len(cfgs))
	}
	for i := range cfgs {
		if calls[i] != 1 {
			t.Errorf("run %d notified %d times", i, calls[i])
		}
	}
	if !sawErr[1] || sawErr[0] || sawErr[2] || sawErr[3] {
		t.Errorf("notify error flags = %v, want only run 1", sawErr)
	}
	for _, i := range []int{0, 2, 3} {
		if results[i] == nil {
			t.Errorf("run %d result missing", i)
		}
	}
	if results[1] != nil {
		t.Error("failed run has a result")
	}
}
