package machine

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// RunMany executes independent simulations concurrently, preserving
// input order in the returned slice. Each Simulate call is
// single-threaded and deterministic, so the sweep is embarrassingly
// parallel: this is how the experiment harness exploits the host
// machine's cores without sacrificing reproducibility.
//
// Failures aggregate rather than short-circuit: every run executes, the
// returned slice always has len(cfgs) entries (nil where a run failed),
// and the error joins one wrapped error per failed run — each carrying
// the run index, policy, workload kind and seed, so a sweep with three
// broken points names all three. errors.Is still matches the underlying
// sentinels (vm.ErrNoVictim etc.) through the join. A panic inside one
// run — a faulty custom Policy.Factory, say — is recovered and becomes
// that slot's error the same way; the sibling runs complete normally.
func RunMany(cfgs []Config, parallelism int) ([]*Result, error) {
	return RunManyNotify(cfgs, parallelism, nil)
}

// RunManyNotify is RunMany with a completion hook: when notify is
// non-nil it is invoked once per run, as soon as that run finishes,
// with the run's input index, its result and its error (exactly one of
// which is non-nil). This is how the sweep runner journals completed
// runs incrementally instead of waiting for the whole batch.
//
// notify is called from the worker goroutines, concurrently: it must
// be safe for concurrent use, and long hooks serialize the workers
// behind whatever lock they take.
func RunManyNotify(cfgs []Config, parallelism int, notify func(i int, res *Result, err error)) ([]*Result, error) {
	if len(cfgs) == 0 {
		// Nothing to sweep: no workers are spawned at all.
		return []*Result{}, nil
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(cfgs) {
		parallelism = len(cfgs) // never more workers than runs
	}
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i], errs[i] = runRecovered(cfgs[i])
				if notify != nil {
					notify(i, results[i], errs[i])
				}
			}
		}()
	}
	for i := range cfgs {
		work <- i
	}
	close(work)
	wg.Wait()
	var joined []error
	for i, err := range errs {
		if err != nil {
			cfg := &cfgs[i]
			pol := cfg.Policy.Kind.String()
			if cfg.Policy.Factory != nil {
				pol = "custom"
			}
			joined = append(joined, fmt.Errorf("machine: run %d (policy %s, workload %q, seed %d): %w",
				i, pol, cfg.Workload.Name, cfg.Seed, err))
		}
	}
	return results, errors.Join(joined...)
}

// runRecovered executes one simulation, converting a panic anywhere in
// the engine — most plausibly a faulty custom Policy.Factory or policy
// implementation — into that run's error, so one broken run cannot
// kill the whole sweep process and lose every sibling result.
func runRecovered(cfg Config) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return Simulate(cfg)
}
