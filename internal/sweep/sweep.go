// Package sweep is the experiment harness's checkpointed, resumable
// parameter-sweep runner, layered on machine.RunMany.
//
// The paper's evaluation is a grid of (policy × cores × memory-ratio ×
// page-size × seed) simulations on one host, and a sweep that loses all
// progress on a crash has to start the grid over. Here every run gets a
// deterministic content key (a hash of its machine.Config; see Key),
// completed runs append to a JSONL journal as they finish, and a
// restarted sweep loads the journal and re-executes only the runs it is
// missing — the merged output is bit-identical to an uninterrupted
// sweep, because each journaled Result round-trips losslessly and the
// merge order is fixed by the grid, not by completion order.
//
// Seed replication (Options.Repeats) expands each grid point into runs
// under seeds Seed..Seed+Repeats-1, journals the replicates
// individually, and averages them in the deterministic merge step.
package sweep

import (
	"fmt"
	"sync"

	"cmcp/internal/machine"
	"cmcp/internal/obs"
	"cmcp/internal/sim"
)

// Options parameterize one sweep.
type Options struct {
	// Journal is the path of the append-mode JSONL journal: completed
	// runs are appended (and flushed) as they finish, and journaled runs
	// found at startup are reused instead of executed. Empty disables
	// checkpointing. One journal belongs to one process at a time.
	Journal string
	// Parallelism caps concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Repeats replicates every config under seeds Seed..Seed+Repeats-1
	// and averages the replicates in the merge step (0 or 1 = single
	// run per grid point).
	Repeats int
	// Progress, when non-nil, is advanced as the sweep plans and
	// completes runs; see obs.Progress.
	Progress *obs.Progress
}

// Outcome is one sweep's merged result set plus its provenance. A grid
// point that recurs — a duplicated config, or a replicate seed shared
// by neighbouring grid points — is one run: Executed and Loaded count
// distinct content keys, not grid slots.
type Outcome struct {
	// Results align with the input configs: Results[i] is config i's
	// merged (Repeats-averaged) result. They stay nil when a run failed.
	Results []*machine.Result
	// Executed counts runs this process simulated.
	Executed int
	// Loaded counts runs satisfied from the journal.
	Loaded int
	// SkippedLines counts malformed journal lines dropped by the
	// lenient reader (e.g. the torn last line of a killed sweep).
	SkippedLines int
}

// Run executes the grid. Runs already present in the journal are
// loaded, and everything else executes through machine.RunMany,
// journaling each completion immediately. The returned error aggregates
// per-run failures exactly like RunMany; journaled sibling results
// survive a failed or killed sweep either way.
func Run(cfgs []machine.Config, opt Options) (*Outcome, error) {
	reps := max(opt.Repeats, 1)

	// Expand the grid: one run per (config, replicate seed), each with
	// its deterministic content key.
	type slot struct {
		cfg machine.Config
		key string
	}
	expanded := make([]slot, 0, len(cfgs)*reps)
	for i := range cfgs {
		if cfgs[i].Probe != nil || cfgs[i].Audit != nil {
			return nil, fmt.Errorf("sweep: config %d carries a Probe/Audit observer; those are single-run objects and cannot be swept", i)
		}
		for r := 0; r < reps; r++ {
			c := cfgs[i]
			c.Seed = cfgs[i].Seed + uint64(r)
			key, err := Key(c)
			if err != nil {
				return nil, fmt.Errorf("sweep: config %d: %w", i, err)
			}
			expanded = append(expanded, slot{cfg: c, key: key})
		}
	}
	out := &Outcome{Results: make([]*machine.Result, len(cfgs))}

	// Load the journal (resume). Later entries win: runs are
	// deterministic, so duplicates agree.
	journaled := make(map[string]Entry)
	if opt.Journal != "" {
		entries, skipped, err := readJournalFile(opt.Journal)
		if err != nil {
			return nil, err
		}
		out.SkippedLines = skipped
		for _, e := range entries {
			journaled[e.Key] = e
		}
	}

	// Plan: fill journaled slots, then collect the unique keys still to
	// execute. A recurring key loads or runs once and counts once.
	raw := make([]*machine.Result, len(expanded))
	seen := make(map[string]struct{}, len(expanded))
	var runCfgs []machine.Config
	var runKeys []string
	for j, sl := range expanded {
		_, dup := seen[sl.key]
		seen[sl.key] = struct{}{}
		if e, ok := journaled[sl.key]; ok && e.Cores == sl.cfg.Cores {
			raw[j] = e.Result(sl.cfg)
			if !dup {
				out.Loaded++
			}
			continue
		}
		if !dup {
			runCfgs = append(runCfgs, sl.cfg)
			runKeys = append(runKeys, sl.key)
		}
	}
	if opt.Progress != nil {
		opt.Progress.AddTotal(len(seen))
		opt.Progress.NoteLoaded(out.Loaded)
	}

	// Execute, journaling each run the moment it completes: that
	// flushed line is the checkpoint a killed sweep resumes from.
	var jw *journalWriter
	if opt.Journal != "" && len(runCfgs) > 0 {
		var err error
		if jw, err = openJournal(opt.Journal); err != nil {
			return nil, fmt.Errorf("sweep: journal %s: %w", opt.Journal, err)
		}
	}
	var (
		jwMu  sync.Mutex
		jwErr error
	)
	results, runErr := machine.RunManyNotify(runCfgs, opt.Parallelism, func(i int, res *machine.Result, err error) {
		if opt.Progress != nil {
			opt.Progress.NoteExecuted()
		}
		if err != nil || jw == nil {
			return
		}
		if aerr := jw.append(entryOf(runKeys[i], runCfgs[i], res)); aerr != nil {
			jwMu.Lock()
			if jwErr == nil {
				jwErr = aerr
			}
			jwMu.Unlock()
		}
	})
	if jw != nil {
		if cerr := jw.close(); cerr != nil && jwErr == nil {
			jwErr = cerr
		}
	}
	if jwErr != nil {
		return nil, fmt.Errorf("sweep: journal %s: %w", opt.Journal, jwErr)
	}
	out.Executed = len(runCfgs)
	if runErr != nil {
		return out, runErr
	}

	// Distribute executed results to their slots (including duplicate
	// grid points sharing a key), normalizing Config to the submitted
	// one so journaled and live results are indistinguishable.
	executed := make(map[string]*machine.Result, len(runKeys))
	for i, key := range runKeys {
		results[i].Config = runCfgs[i]
		executed[key] = results[i]
	}
	for j, sl := range expanded {
		if raw[j] == nil {
			raw[j] = executed[sl.key]
		}
	}

	// Deterministic merge: replicates average in seed order, regardless
	// of the order anything executed or journaled in.
	for i := range cfgs {
		group := raw[i*reps : (i+1)*reps]
		if reps == 1 {
			out.Results[i] = group[0]
			continue
		}
		agg := *group[0] // replicate 0 supplies Frames/Sharing/etc.
		agg.Run = group[0].Run.Clone()
		var runtime sim.Cycles
		for r := 0; r < reps; r++ {
			runtime += group[r].Runtime
			if r > 0 {
				if err := agg.Run.Merge(group[r].Run); err != nil {
					return nil, err
				}
			}
		}
		agg.Run.DivideBy(uint64(reps))
		agg.Runtime = runtime / sim.Cycles(reps)
		agg.Config = cfgs[i]
		out.Results[i] = &agg
	}
	return out, nil
}
