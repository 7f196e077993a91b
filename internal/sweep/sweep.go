// Package sweep is the scale-out layer of the experiment harness: a
// checkpointed, resumable, shardable parameter-sweep runner layered on
// machine.RunMany.
//
// The paper's evaluation — and every CI matrix grown from it — is a
// large grid of (policy × cores × memory-ratio × page-size × seed)
// simulations. Production tiered-memory studies (TPP, Nomad) lean on
// exactly this kind of long-sweep infrastructure, and a sweep that
// loses all progress on a crash does not scale past toy grids. Here
// every run gets a deterministic content key (a hash of its
// machine.Config; see Key), completed runs append to a JSONL journal as
// they finish, and a restarted sweep loads the journal and re-executes
// only the runs it is missing — the merged output is bit-identical to
// an uninterrupted sweep, because each journaled Result round-trips
// losslessly and the merge order is fixed by the grid, not by
// completion order.
//
// Sharding partitions the same grid by key (ShardOf): n processes — CI
// jobs, machines — each run `Shard: i, Shards: n` against their own
// journal, with no coordination, and a final un-sharded invocation
// that imports every journal merges the grid without executing
// anything. Seed replication (Options.Repeats) expands each grid point
// into runs under seeds Seed..Seed+Repeats-1, journals the replicates
// individually, and averages them in the deterministic merge step —
// the same math the experiment harness used to do inline.
package sweep

import (
	"fmt"
	"sync"

	"cmcp/internal/machine"
	"cmcp/internal/obs"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
)

// Options parameterize one sweep.
type Options struct {
	// Journal is the path of this process's append-mode JSONL journal:
	// completed runs are appended (and flushed) as they finish, and
	// journaled runs found at startup are reused instead of executed.
	// Empty disables checkpointing. One journal belongs to one process
	// at a time; shards each write their own.
	Journal string
	// Imports are additional journals to read for completed runs —
	// typically the other shards' output during the final merge. They
	// are never written.
	Imports []string
	// Shard/Shards partition the expanded run grid by content key:
	// this process executes only runs with ShardOf(key, Shards) ==
	// Shard. Shards <= 1 disables partitioning. Runs outside the shard
	// are still satisfied from journals when present; otherwise they
	// are counted in Outcome.Missing and their merged slots stay nil.
	Shard, Shards int
	// Parallelism caps concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Repeats replicates every config under seeds Seed..Seed+Repeats-1
	// and averages the replicates in the merge step (0 or 1 = single
	// run per grid point).
	Repeats int
	// Progress, when non-nil, is advanced as the sweep plans and
	// completes runs; see obs.Progress.
	Progress *obs.Progress
	// ScheduleFrom is an optional journal path whose recorded simulated
	// runtimes order the pending runs longest-first (LPT) before
	// execution. Runs absent from that journal keep their grid order
	// after the known ones. Ordering never changes any result — the
	// merge is grid-ordered — only the wall-clock shape of the sweep.
	ScheduleFrom string
}

// Outcome is one sweep's merged result set plus its provenance.
type Outcome struct {
	// Results align with the input configs: Results[i] is config i's
	// merged (Repeats-averaged) result, or nil when sharding left some
	// of its replicates unexecuted (see Missing).
	Results []*machine.Result
	// Executed counts runs this process simulated.
	Executed int
	// Loaded counts runs satisfied from journals.
	Loaded int
	// Missing counts runs that belong to other shards and appeared in
	// no journal. Always zero on an unsharded sweep.
	Missing int
	// SkippedLines counts malformed journal lines dropped by the
	// lenient reader (e.g. the torn last line of a killed sweep).
	SkippedLines int
}

// Run executes the grid. Runs already present in the journal (or any
// import) are loaded, runs assigned to other shards are left to them,
// and everything else executes through machine.RunMany, journaling
// each completion immediately. The returned error aggregates per-run
// failures exactly like RunMany; journaled sibling results survive a
// failed or killed sweep either way.
func Run(cfgs []machine.Config, opt Options) (*Outcome, error) {
	if opt.Shards < 0 || (opt.Shards > 1 && (opt.Shard < 0 || opt.Shard >= opt.Shards)) {
		return nil, fmt.Errorf("sweep: shard %d/%d out of range", opt.Shard, opt.Shards)
	}
	reps := opt.Repeats
	if reps <= 1 {
		reps = 1
	}

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
	if opt.Progress != nil {
		opt.Progress.AddTotal(len(expanded))
	}

	// Load every journal: this process's own (resume) plus imports
	// (other shards). Later entries win within a file; across files the
	// first hit wins — runs are deterministic, so duplicates agree.
	journaled := make(map[string]Entry)
	for _, path := range append([]string{opt.Journal}, opt.Imports...) {
		if path == "" {
			continue
		}
		entries, skipped, err := readJournalFile(path)
		if err != nil {
			return nil, err
		}
		out.SkippedLines += skipped
		for _, e := range entries {
			journaled[e.Key] = e
		}
	}

	// Plan: fill journaled slots, then collect the unique keys this
	// shard still has to execute (duplicate grid points run once).
	raw := make([]*machine.Result, len(expanded))
	seen := make(map[string]struct{}, len(expanded))
	var runCfgs []machine.Config
	var runKeys []string
	for j, sl := range expanded {
		if e, ok := journaled[sl.key]; ok && e.Cores == sl.cfg.Cores {
			raw[j] = e.Result(sl.cfg)
			out.Loaded++
			continue
		}
		if _, ok := seen[sl.key]; ok {
			continue // duplicate grid point: filled from `executed` below
		}
		seen[sl.key] = struct{}{}
		if opt.Shards > 1 && ShardOf(sl.key, opt.Shards) != opt.Shard {
			continue // another shard's work
		}
		runCfgs = append(runCfgs, sl.cfg)
		runKeys = append(runKeys, sl.key)
	}
	if opt.Progress != nil {
		opt.Progress.NoteLoaded(out.Loaded)
	}

	// Longest-first (LPT) scheduling: when a prior journal records how
	// long each run simulates, front-load the long ones so no straggler
	// serializes the sweep's tail. Purely a wall-clock optimization —
	// the merge below is grid-ordered, so results are unchanged.
	if opt.ScheduleFrom != "" && len(runCfgs) > 1 {
		runtimes, err := RuntimesByKey(opt.ScheduleFrom)
		if err != nil {
			return nil, err
		}
		OrderLongestFirst(runKeys, runCfgs, runtimes)
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

	// Distribute executed results to their slots (including duplicate
	// grid points sharing a key), normalizing Config to the submitted
	// one so journaled and live results are indistinguishable.
	executed := make(map[string]*machine.Result, len(runKeys))
	for i, key := range runKeys {
		if results[i] != nil {
			results[i].Config = runCfgs[i]
			executed[key] = results[i]
		}
	}
	for j, sl := range expanded {
		if raw[j] == nil {
			if res, ok := executed[sl.key]; ok {
				raw[j] = res
			}
		}
	}
	for _, r := range raw {
		if r == nil {
			out.Missing++
		}
	}
	if opt.Progress != nil && out.Missing > 0 {
		opt.Progress.NoteMissing(out.Missing)
	}
	if runErr != nil {
		return out, runErr
	}

	// Deterministic merge: replicates average in seed order, regardless
	// of the order anything executed or journaled in.
	for i := range cfgs {
		group := raw[i*reps : (i+1)*reps]
		complete := true
		for _, r := range group {
			if r == nil {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}
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

// Placeholder returns an inert stand-in Result for a grid point whose
// runs live in another shard: zero counters, zero runtime, a marker
// policy name. Renderers stay total — a sharded invocation produces a
// complete (if meaningless) report that the caller suppresses — and
// nothing downstream dereferences nil.
func Placeholder(cfg machine.Config) *machine.Result {
	return &machine.Result{
		Config:     cfg,
		Run:        stats.NewRun(cfg.Cores),
		PolicyName: "(other shard)",
	}
}
