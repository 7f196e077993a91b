// Command cmcpsim drives the CMCP many-core paging simulator in one of
// three modes:
//
//	cmcpsim -exp fig7 -scale 0.25                 # regenerate a paper figure or table
//	cmcpsim -run -workload cg.B -cores 56 -ratio 0.4 -policy CMCP -p 0.25
//	cmcpsim -compact-journal sweep.jsonl          # dedup a sweep journal
//
// Experiments: fig6..fig10, table1, sense and all reproduce the paper;
// tenants is an extension. A sweep runs -parallel simulations
// at once; long sweeps checkpoint to a -journal and resume from it, or
// split across processes with -shard i/n and merge with
// -journal-import. A single -run can record an event trace and time
// series:
//
//	cmcpsim -run -policy CMCP -trace -trace-out run.json -sample-every 100000
//
// Every flag is one row of a table that names the modes it applies to.
// A flag given in another mode, an out-of-range value, or a flag given
// without the flag that makes it meaningful is a usage error (exit 2),
// never silently dropped.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cmcp"
	"cmcp/internal/plot"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// mode is a set of cmcpsim's three exclusive modes of operation.
type mode uint8

const (
	modeRun mode = 1 << iota
	modeExp
	modeCompact
	// modeSim is both simulating modes.
	modeSim = modeRun | modeExp
)

var modes = []mode{modeRun, modeExp, modeCompact}

func (m mode) String() string {
	var names []string
	for i, name := range []string{"-run", "-exp", "-compact-journal"} {
		if m&modes[i] != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, "|")
}

// plan is one resolved invocation: everything the chosen mode does.
type plan struct {
	mode mode
	run  cmcp.Config            // -run: the simulation
	exp  string                 // -exp: experiment ID
	opts cmcp.ExperimentOptions // -exp: sweep settings
	out  output                 // -run and -exp: what to print and write
	// -compact-journal: input and output journal paths.
	compactIn, compactOut string
}

// output holds the settings that shape what a simulation emits rather
// than what it simulates.
type output struct {
	csv, plot, progress bool
	trace               bool
	traceOut            string
	sampleEvery         uint64
}

// inputs are the flags that feed more than one plan field or need
// parsing; resolve folds them into the plan once the mode is known.
type inputs struct {
	run                                bool
	workload, policy, tables, pageSize string
	engine, shard, imports             string
	scale, zipfS                       float64
	seed                               uint64
	hist                               bool
	tenants, churn                     int
}

// resolver is what the flag table writes into.
type resolver struct {
	plan
	in inputs
}

// row is one flag: its name, default and usage, the modes that accept
// it and the field it sets. When the flag is given, ok (if set) must
// hold on the resolved plan; want says what it requires.
type row struct {
	name  string
	def   any
	modes mode
	usage string
	field func(*resolver) any
	ok    func(*resolver) bool
	want  string
}

// Rules shared by several rows.
var (
	hasTenants = func(r *resolver) bool { return r.in.tenants > 0 }
	isCMCP     = func(r *resolver) bool { return r.run.Policy.Kind == cmcp.CMCP }
	unsharded  = func(r *resolver) bool { return r.opts.Shards <= 1 }
)

// table is every cmcpsim flag.
var table = []row{
	// Mode selectors.
	{"run", false, modeRun, "run a single simulation", func(r *resolver) any { return &r.in.run }, nil, ""},
	{"exp", "", modeExp, "experiment to regenerate: fig6|fig7|fig8|fig9|fig10|table1|sense|all, or the extension: tenants", func(r *resolver) any { return &r.exp }, nil, ""},
	{"compact-journal", "", modeCompact, "compact this sweep journal (keep the last entry per key, drop torn lines, sort) and exit", func(r *resolver) any { return &r.compactIn }, nil, ""},

	// What to simulate (-run and -exp).
	{"engine", "serial", modeSim, "simulation engine: serial|parallel (bit-identical results)", func(r *resolver) any { return &r.in.engine }, nil, ""},
	{"scale", 1.0, modeSim, "workload footprint/work multiplier", func(r *resolver) any { return &r.in.scale },
		func(r *resolver) bool { return r.in.scale > 0 }, "must be > 0"},
	{"seed", uint64(42), modeSim, "random seed", func(r *resolver) any { return &r.in.seed }, nil, ""},
	{"tenants", 0, modeSim, "simulate N tenant address spaces contending for the frame pool (0 = single-tenant -workload run; with -exp, only the tenants experiment accepts it)", func(r *resolver) any { return &r.in.tenants },
		func(r *resolver) bool { return r.in.tenants >= 0 }, "must be >= 0"},
	{"zipf-s", 1.1, modeSim, "with -tenants: Zipfian tenant-popularity exponent (higher = more skew)", func(r *resolver) any { return &r.in.zipfS }, hasTenants, "requires -tenants > 0"},
	{"churn", 0, modeSim, "with -tenants: rotate the hot tenant set every N touches per core (0 = no churn)", func(r *resolver) any { return &r.in.churn }, hasTenants, "requires -tenants > 0"},
	{"hist", false, modeSim, "record latency/fan-out histograms (read-only; counters stay bit-identical)", func(r *resolver) any { return &r.in.hist }, nil, ""},

	// -run: one machine.
	{"workload", "SCALE", modeRun, "workload: bt.B|lu.B|cg.B|SCALE", func(r *resolver) any { return &r.in.workload },
		func(r *resolver) bool { return r.in.tenants == 0 }, "is replaced by the tenant spec under -tenants"},
	{"cores", 56, modeRun, "application cores", func(r *resolver) any { return &r.run.Cores },
		func(r *resolver) bool { return r.run.Cores >= 1 }, "must be >= 1"},
	{"ratio", 0.5, modeRun, "device memory as a fraction of the footprint, in (0, 1]", func(r *resolver) any { return &r.run.MemoryRatio },
		func(r *resolver) bool { return r.run.MemoryRatio > 0 && r.run.MemoryRatio <= 1 }, "must be in (0, 1]"},
	{"policy", "CMCP", modeRun, "policy: FIFO|LRU|CMCP|CLOCK|LFU|Random", func(r *resolver) any { return &r.in.policy }, nil, ""},
	{"p", -1.0, modeRun, "with -policy CMCP: prioritized-pages ratio (-1 = default)", func(r *resolver) any { return &r.run.Policy.P }, isCMCP, "requires -policy CMCP"},
	{"dynamic-p", false, modeRun, "with -policy CMCP: enable the fault-feedback p tuner", func(r *resolver) any { return &r.run.Policy.DynamicP }, isCMCP, "requires -policy CMCP"},
	{"tables", "pspt", modeRun, "page tables: pspt|regular", func(r *resolver) any { return &r.in.tables }, nil, ""},
	{"pagesize", "4k", modeRun, "page size: 4k|64k|2m", func(r *resolver) any { return &r.in.pageSize }, nil, ""},
	{"trace", false, modeRun, "record a flight-recorder event trace of the simulation", func(r *resolver) any { return &r.out.trace }, nil, ""},
	{"trace-out", "trace.json", modeRun, "with -trace or -sample-every: output path: .json = Chrome trace_event (Perfetto), .jsonl = JSON Lines", func(r *resolver) any { return &r.out.traceOut },
		func(r *resolver) bool { return r.out.trace || r.out.sampleEvery > 0 }, "requires -trace or -sample-every"},
	{"sample-every", uint64(0), modeRun, "time-series sampling interval in cycles (0 = off); CSV lands next to -trace-out", func(r *resolver) any { return &r.out.sampleEvery }, nil, ""},

	// -exp: a sweep.
	{"quick", false, modeExp, "shrink sweeps (fewer core counts and ratio points)", func(r *resolver) any { return &r.opts.Quick }, nil, ""},
	{"parallel", 0, modeExp, "max concurrent simulations (0 = GOMAXPROCS)", func(r *resolver) any { return &r.opts.Parallelism },
		func(r *resolver) bool { return r.opts.Parallelism >= 0 }, "must be >= 0"},
	{"repeats", 1, modeExp, "replicate each run under N seeds and average", func(r *resolver) any { return &r.opts.Repeats },
		func(r *resolver) bool { return r.opts.Repeats >= 1 }, "must be >= 1"},
	{"csv", false, modeExp, "emit CSV instead of aligned text", func(r *resolver) any { return &r.out.csv },
		unsharded, "has no output under -shard: a shard's only output is its journal"},
	{"plot", false, modeExp, "render numeric tables as ASCII charts too (not with -csv)", func(r *resolver) any { return &r.out.plot },
		func(r *resolver) bool { return !r.out.csv && unsharded(r) }, "excludes -csv and -shard"},
	{"progress", false, modeExp, "report sweep progress (runs done/total, runs/s, ETA) on stderr", func(r *resolver) any { return &r.out.progress }, nil, ""},
	{"journal", "", modeExp, "checkpoint completed runs to this JSONL journal and resume from it", func(r *resolver) any { return &r.opts.Journal }, nil, ""},
	{"journal-import", "", modeExp, "comma-separated read-only journals to merge (other shards' output)", func(r *resolver) any { return &r.in.imports }, nil, ""},
	{"shard", "", modeExp, "run only shard i of n, as \"i/n\"; partitions the grid by content key", func(r *resolver) any { return &r.in.shard },
		func(r *resolver) bool { return r.opts.Journal != "" }, "requires -journal: a shard's only output is its journal"},
	{"schedule-from", "", modeExp, "order pending runs longest-first using runtimes recorded in this journal (a previous run's -journal)", func(r *resolver) any { return &r.opts.ScheduleFrom }, nil, ""},

	// -compact-journal.
	{"compact-out", "", modeCompact, "output path (default: compact in place)", func(r *resolver) any { return &r.compactOut }, nil, ""},
}

// register binds the row's flag to its field in r.
func (rw row) register(fs *flag.FlagSet, r *resolver) {
	usage := fmt.Sprintf("%s [%v]", rw.usage, rw.modes)
	switch p := rw.field(r).(type) {
	case *bool:
		fs.BoolVar(p, rw.name, rw.def.(bool), usage)
	case *int:
		fs.IntVar(p, rw.name, rw.def.(int), usage)
	case *uint64:
		fs.Uint64Var(p, rw.name, rw.def.(uint64), usage)
	case *float64:
		fs.Float64Var(p, rw.name, rw.def.(float64), usage)
	case *string:
		fs.StringVar(p, rw.name, rw.def.(string), usage)
	default:
		panic(fmt.Sprintf("cmcpsim: flag -%s binds unsupported field type %T", rw.name, p))
	}
}

// resolve parses args through the flag table into a plan. Every error
// is a usage error that names the offending flag.
func resolve(args []string, stderr io.Writer) (*plan, error) {
	r := &resolver{}
	fs := flag.NewFlagSet("cmcpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rows := make(map[string]row, len(table))
	for _, rw := range table {
		rw.register(fs, r)
		rows[rw.name] = rw
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	var chosen mode
	for m, on := range map[mode]bool{modeRun: r.in.run, modeExp: r.exp != "", modeCompact: r.compactIn != ""} {
		if on {
			chosen |= m
		}
	}
	switch chosen {
	case 0:
		fs.Usage()
		return nil, fmt.Errorf("choose a mode: %v", modeSim|modeCompact)
	case modeRun, modeExp, modeCompact:
		r.mode = chosen
	default:
		return nil, fmt.Errorf("%v: choose only one mode", chosen)
	}
	var given []*flag.Flag
	fs.Visit(func(f *flag.Flag) { given = append(given, f) })
	for _, f := range given {
		rw := rows[f.Name]
		if m := rw.modes; m&r.mode == 0 {
			return nil, fmt.Errorf("-%s is not valid with %v (it applies to %v)", f.Name, r.mode, m)
		}
		if v, ok := rw.field(r).(*float64); ok && (math.IsNaN(*v) || math.IsInf(*v, 0)) {
			return nil, fmt.Errorf("-%s %s: must be a finite number", f.Name, f.Value)
		}
	}
	if err := r.build(); err != nil {
		return nil, err
	}
	for _, f := range given {
		if rw := rows[f.Name]; rw.ok != nil && !rw.ok(r) {
			return nil, fmt.Errorf("-%s %s: %s", f.Name, f.Value, rw.want)
		}
	}
	return &r.plan, nil
}

// build folds the inputs into the chosen mode's plan fields.
func (r *resolver) build() error {
	in := &r.in
	if r.mode == modeCompact {
		if r.compactOut == "" {
			r.compactOut = r.compactIn
		}
		return nil
	}
	eng, err := cmcp.ParseEngine(in.engine)
	if err != nil {
		return fmt.Errorf("-engine: %w", err)
	}
	var tenants *cmcp.TenantSpec
	if in.tenants > 0 {
		spec := cmcp.DefaultTenantSpec(in.tenants, in.zipfS, in.churn)
		if in.scale != 1.0 {
			spec.TotalTouches = int(float64(spec.TotalTouches) * in.scale)
		}
		tenants = &spec
	}
	if r.mode == modeExp {
		o := &r.opts
		o.Scale, o.Seed, o.Engine, o.Hist, o.Tenants = in.scale, in.seed, eng, in.hist, tenants
		o.Imports = splitList(in.imports)
		o.Shard, o.Shards, err = parseShard(in.shard)
		return err
	}
	c := &r.run
	c.Seed, c.Engine, c.Hist, c.Tenants = in.seed, eng, in.hist, tenants
	if tenants == nil {
		wl, ok := cmcp.WorkloadByName(in.workload)
		if !ok {
			return fmt.Errorf("-workload: unknown workload %q", in.workload)
		}
		if in.scale != 1.0 {
			wl = wl.Scale(in.scale)
		}
		c.Workload = wl
	}
	if c.Policy.Kind, err = parsePolicy(in.policy); err != nil {
		return err
	}
	var ok bool
	if c.Tables, ok = tableKinds[strings.ToLower(in.tables)]; !ok {
		return fmt.Errorf("-tables: unknown tables %q", in.tables)
	}
	if c.PageSize, ok = pageSizes[strings.ToLower(in.pageSize)]; !ok {
		return fmt.Errorf("-pagesize: unknown page size %q", in.pageSize)
	}
	return nil
}

// run executes one cmcpsim invocation and returns its exit status:
// 0 on success, 1 when the work fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	p, err := resolve(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, "cmcpsim:", err)
		return 2
	}
	switch p.mode {
	case modeRun:
		err = simulate(p, stdout)
	case modeExp:
		err = experiment(p, stdout, stderr)
	case modeCompact:
		var st cmcp.SweepCompactStats
		if st, err = cmcp.CompactSweepJournal(p.compactIn, p.compactOut); err == nil {
			fmt.Fprintf(stdout, "compacted %s -> %s: %d entries kept, %d duplicates dropped, %d torn lines skipped\n",
				p.compactIn, p.compactOut, st.Kept, st.Dropped, st.Skipped)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "cmcpsim:", err)
		return 1
	}
	return 0
}

// parseShard parses "i/n" (e.g. "0/4"); "" means unsharded. The whole
// string must match: "0/2x" and "1/2/3" are errors.
func parseShard(s string) (int, int, error) {
	if s == "" {
		return 0, 0, nil
	}
	is, ns, _ := strings.Cut(s, "/")
	i, ierr := strconv.Atoi(is)
	n, nerr := strconv.Atoi(ns)
	if ierr != nil || nerr != nil || n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("-shard: bad value %q: want \"i/n\" with 0 <= i < n", s)
	}
	return i, n, nil
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// experiment runs -exp: each experiment's sweep.
func experiment(p *plan, stdout, stderr io.Writer) error {
	o, id, out := p.opts, p.exp, p.out
	ids := []string{id}
	if id == "all" {
		ids = []string{"fig6", "fig8", "fig7", "table1", "fig9", "fig10", "sense"}
	}
	sharded := o.Shards > 1
	if out.progress || sharded {
		o.Progress = cmcp.NewSweepProgress()
	}
	if out.progress {
		// Periodic one-line status on stderr while the sweep grinds.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(5 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					fmt.Fprintf(stderr, "[sweep] %s\n", o.Progress)
				}
			}
		}()
	}
	for _, one := range ids {
		start := time.Now()
		rep, err := cmcp.RunExperiment(one, o)
		if err != nil {
			return err
		}
		switch {
		case sharded:
			// A shard's report is scaffolding full of placeholder rows;
			// its real output is the journal. Say so instead of printing.
		case out.csv:
			fmt.Fprint(stdout, rep.CSV())
		default:
			fmt.Fprint(stdout, rep.String())
			if out.plot {
				for _, tab := range rep.Tables {
					if chart := plot.FromTable(tab, 56, 14); chart != "" {
						fmt.Fprintln(stdout, chart)
					}
				}
			}
		}
		fmt.Fprintf(stderr, "[%s done in %v]\n", one, time.Since(start).Round(time.Millisecond))
	}
	if s := o.Progress; s != nil {
		snap := s.Snapshot()
		fmt.Fprintf(stderr, "[sweep] %s\n", snap)
		if sharded {
			fmt.Fprintf(stderr,
				"[sweep] shard %d/%d complete: %d runs journaled to %s (%d reused, %d left to other shards)\n"+
					"[sweep] run the remaining shards, then merge with: -exp %s -journal %s -journal-import <other journals>\n",
				o.Shard, o.Shards, snap.Executed, o.Journal, snap.Loaded, snap.Missing, id, o.Journal)
		}
	}
	return nil
}

// simulate runs -run: one simulation, its summary, and its trace files.
func simulate(p *plan, stdout io.Writer) error {
	cfg := p.run
	var rec *cmcp.Recorder
	if p.out.trace || p.out.sampleEvery > 0 {
		rec = cmcp.NewRecorder(cmcp.RecorderConfig{SampleEvery: cmcp.Cycles(p.out.sampleEvery)})
		cfg.Probe = rec
	}
	res, err := cmcp.Simulate(cfg)
	if err != nil {
		return err
	}
	printf := func(format string, args ...any) { fmt.Fprintf(stdout, format, args...) }
	r := res.Run
	name := cfg.Workload.Name
	if cfg.Tenants != nil {
		name = cfg.Tenants.Name()
	}
	printf("workload      %s (%d pages, %d frames, %s, %v)\n",
		name, res.TotalPages, res.Frames, cfg.PageSize, cfg.Tables)
	printf("policy        %s\n", res.PolicyName)
	printf("runtime       %.2f Mcycles (%.2f ms at 1.053 GHz)\n",
		float64(res.Runtime)/1e6, float64(res.Runtime)/1.053e6)
	printf("page faults   %.0f per core\n", r.PerCoreAvg(cmcp.PageFaults))
	printf("minor faults  %.0f per core\n", r.PerCoreAvg(cmcp.MinorFaults))
	printf("remote invals %.0f per core\n", r.PerCoreAvg(cmcp.RemoteTLBInvalidations))
	printf("dTLB misses   %.0f per core\n", r.PerCoreAvg(cmcp.DTLBMisses))
	printf("evictions     %.0f per core\n", r.PerCoreAvg(cmcp.Evictions))
	printf("data moved    %.1f MB in, %.1f MB out\n",
		float64(r.Total(cmcp.BytesIn))/1e6, float64(r.Total(cmcp.BytesOut))/1e6)
	if res.Sharing != nil {
		printf("sharing       %v (pages by core-map count 0..n)\n", res.Sharing[:min(9, len(res.Sharing))])
	}
	if hs := r.Hists; hs != nil {
		printf("latency histograms (cycles unless noted):\n")
		printf("  %-26s %10s %12s %8s %8s %8s %8s %10s\n",
			"", "count", "mean", "p50", "p90", "p99", "p999", "max")
		for i, name := range cmcp.HistNames() {
			s := hs.Get(cmcp.HistID(i)).Summarize()
			if s.Count == 0 {
				continue
			}
			printf("  %-26s %10d %12.1f %8d %8d %8d %8d %10d\n",
				name, s.Count, s.Mean, s.P50, s.P90, s.P99, s.P999, s.Max)
		}
	}
	if ts := r.Tenants; ts != nil {
		printf("tenants       %d address spaces; fairness (Jain, over p99 fault service) %.3f\n",
			ts.Tenants(), ts.FairnessIndex())
		show := min(8, ts.Tenants())
		printf("  %-8s %12s %12s %10s %10s %10s %10s\n",
			"tenant", "touches", "page_faults", "evictions", "caused", "p99(cyc)", "max(cyc)")
		for t := 0; t < show; t++ {
			s := ts.FaultHist(t).Summarize()
			printf("  %-8d %12d %12d %10d %10d %10d %10d\n", t,
				ts.Get(t, cmcp.TenantTouches), ts.Get(t, cmcp.TenantFaults),
				ts.Get(t, cmcp.TenantEvictions), ts.Get(t, cmcp.TenantEvictionsCaused),
				s.P99, s.Max)
		}
		if ts.Tenants() > show {
			printf("  ... %d more tenants (full record lands in Run.Tenants and journals)\n",
				ts.Tenants()-show)
		}
	}
	if rec != nil {
		return writeTrace(rec, p.out, cfg.Cores, stdout)
	}
	return nil
}

// writeTrace exports the recorder's contents according to the flags:
// events to -trace-out (format by extension), samples to a sibling
// .samples.csv when -sample-every is set.
func writeTrace(rec *cmcp.Recorder, out output, cores int, stdout io.Writer) error {
	if out.trace {
		f, err := os.Create(out.traceOut)
		if err != nil {
			return err
		}
		events := rec.Events()
		switch {
		case strings.HasSuffix(out.traceOut, ".jsonl"):
			// The meta header carries the drop count into the file, so
			// cmcptrace -replay can warn that the ring overflowed
			// instead of presenting a truncated trace as complete.
			err = cmcp.WriteTraceJSONLWithMeta(f, events, rec.Dropped())
		default:
			err = cmcp.WriteChromeTrace(f, events, rec.Samples(), cores)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace         %d events (%d dropped) -> %s\n", len(events), rec.Dropped(), out.traceOut)
	}
	if out.sampleEvery > 0 {
		ext := filepath.Ext(out.traceOut)
		csvOut := strings.TrimSuffix(out.traceOut, ext) + ".samples.csv"
		f, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		err = cmcp.WriteSamplesCSV(f, rec.Samples())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "samples       %d points -> %s\n", len(rec.Samples()), csvOut)
	}
	return nil
}

func parsePolicy(name string) (cmcp.PolicyKind, error) {
	for _, k := range []cmcp.PolicyKind{cmcp.FIFO, cmcp.LRU, cmcp.CMCP, cmcp.CLOCK, cmcp.LFU, cmcp.Random} {
		if strings.EqualFold(k.String(), name) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("-policy: unknown policy %q", name)
}

// Value spellings of -tables and -pagesize (case-insensitive).
var (
	tableKinds = map[string]cmcp.TableKind{"pspt": cmcp.PSPT, "regular": cmcp.RegularPT}
	pageSizes  = map[string]cmcp.PageSize{"4k": cmcp.Size4k, "4kb": cmcp.Size4k,
		"64k": cmcp.Size64k, "64kb": cmcp.Size64k, "2m": cmcp.Size2M, "2mb": cmcp.Size2M}
)
