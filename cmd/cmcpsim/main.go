// Command cmcpsim drives the CMCP many-core paging simulator in one of
// four modes:
//
//	cmcpsim -exp fig7 -scale 0.25                 # regenerate a paper figure or table
//	cmcpsim -run -workload cg.B -cores 56 -ratio 0.4 -policy CMCP -p 0.25
//	cmcpsim -analyze -workload cg.B -cores 16 -ratio 0.4
//	cmcpsim -replay run.jsonl -buckets 24
//
// Experiments: fig6..fig10, table1, sense and all reproduce the paper;
// tenants is an extension. A sweep runs -parallel simulations at once;
// a long sweep checkpoints to a -journal and resumes from it. A single
// -run can record an event trace and time series:
//
//	cmcpsim -run -policy CMCP -trace -trace-out run.json -sample-every 100000
//
// -analyze captures the workload's page-access trace in memory and
// compares the online policies' fault counts with Belady's optimal
// (MIN), the clairvoyant lower bound, at the capacity -run would
// simulate. -replay renders a JSONL event trace that -run recorded as a
// bucketed text timeline plus a per-core table.
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
	"slices"
	"strings"
	"time"

	"cmcp"
	"cmcp/internal/core"
	"cmcp/internal/machine"
	"cmcp/internal/obs"
	"cmcp/internal/plot"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// mode is a set of cmcpsim's four exclusive modes of operation.
type mode uint8

const (
	modeRun mode = 1 << iota
	modeExp
	modeAnalyze
	modeReplay
	// modeSim is the two modes that simulate.
	modeSim = modeRun | modeExp
	// modeAll is every mode.
	modeAll = modeSim | modeAnalyze | modeReplay
)

var modes = []mode{modeRun, modeExp, modeAnalyze, modeReplay}

func (m mode) String() string {
	var names []string
	for i, name := range []string{"-run", "-exp", "-analyze", "-replay"} {
		if m&modes[i] != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, "|")
}

// plan is one resolved invocation: everything the chosen mode does.
type plan struct {
	mode    mode
	run     cmcp.Config            // -run: the simulation; -analyze: the machine it bounds
	exp     string                 // -exp: experiment ID
	opts    cmcp.ExperimentOptions // -exp: sweep settings
	replay  string                 // -replay: JSONL event trace to render
	buckets int                    // -replay: timeline rows
	out     output                 // what to print and write
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
	run, analyze                               bool
	workload, policy, tables, pageSize, engine string
	scale, zipfS                               float64
	seed                                       uint64
	hist                                       bool
	tenants, churn                             int
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
)

// table is every cmcpsim flag.
var table = []row{
	// Mode selectors.
	{"run", false, modeRun, "run a single simulation", func(r *resolver) any { return &r.in.run }, nil, ""},
	{"exp", "", modeExp, "experiment to regenerate: fig6|fig7|fig8|fig9|fig10|table1|sense|all, or the extension: tenants", func(r *resolver) any { return &r.exp }, nil, ""},
	{"analyze", false, modeAnalyze, "compare online policies' fault counts with Belady's OPT on the workload's access trace", func(r *resolver) any { return &r.in.analyze }, nil, ""},
	{"replay", "", modeReplay, "JSONL event trace (from -run -trace) to render as a timeline", func(r *resolver) any { return &r.replay }, nil, ""},

	// What to simulate.
	{"engine", "serial", modeSim, "simulation engine: serial|parallel (bit-identical results)", func(r *resolver) any { return &r.in.engine }, nil, ""},
	{"scale", 1.0, modeSim | modeAnalyze, "workload footprint/work multiplier", func(r *resolver) any { return &r.in.scale },
		func(r *resolver) bool { return r.in.scale > 0 }, "must be > 0"},
	{"seed", uint64(42), modeSim | modeAnalyze, "random seed", func(r *resolver) any { return &r.in.seed }, nil, ""},
	{"tenants", 0, modeSim, "simulate N tenant address spaces contending for the frame pool (0 = single-tenant -workload run; with -exp, only the tenants experiment accepts it)", func(r *resolver) any { return &r.in.tenants },
		func(r *resolver) bool { return r.in.tenants >= 0 }, "must be >= 0"},
	{"zipf-s", 1.1, modeSim, "with -tenants: Zipfian tenant-popularity exponent (higher = more skew)", func(r *resolver) any { return &r.in.zipfS },
		func(r *resolver) bool { return hasTenants(r) && r.in.zipfS >= 0 }, "requires -tenants > 0 and must be >= 0"},
	{"churn", 0, modeSim, "with -tenants: rotate the hot tenant set every N touches per core (0 = no churn)", func(r *resolver) any { return &r.in.churn },
		func(r *resolver) bool { return hasTenants(r) && r.in.churn >= 0 }, "requires -tenants > 0 and must be >= 0"},
	{"hist", false, modeSim, "record latency/fan-out histograms (read-only; counters stay bit-identical)", func(r *resolver) any { return &r.in.hist }, nil, ""},

	// -run (and the machine -analyze bounds): one machine.
	{"workload", "SCALE", modeRun | modeAnalyze, "workload: bt.B|lu.B|cg.B|SCALE", func(r *resolver) any { return &r.in.workload },
		func(r *resolver) bool { return r.in.tenants == 0 }, "is replaced by the tenant spec under -tenants"},
	{"cores", 56, modeRun | modeAnalyze, "application cores", func(r *resolver) any { return &r.run.Cores },
		func(r *resolver) bool { return r.run.Cores >= 1 }, "must be >= 1"},
	{"ratio", 0.5, modeRun | modeAnalyze, "device memory as a fraction of the footprint, in (0, 1]", func(r *resolver) any { return &r.run.MemoryRatio },
		func(r *resolver) bool { return r.run.MemoryRatio > 0 && r.run.MemoryRatio <= 1 }, "must be in (0, 1]"},
	{"policy", "CMCP", modeRun, "policy: FIFO|LRU|CMCP|CLOCK|LFU|Random", func(r *resolver) any { return &r.in.policy }, nil, ""},
	{"p", -1.0, modeRun, "with -policy CMCP: prioritized-pages ratio in [0, 1] (-1 = default)", func(r *resolver) any { return &r.run.Policy.P },
		func(r *resolver) bool { p := r.run.Policy.P; return isCMCP(r) && (p == -1 || p >= 0 && p <= 1) }, "requires -policy CMCP and must be -1 or in [0, 1]"},
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
	{"csv", false, modeExp, "emit CSV instead of aligned text", func(r *resolver) any { return &r.out.csv }, nil, ""},
	{"plot", false, modeExp, "render numeric tables as ASCII charts too (not with -csv)", func(r *resolver) any { return &r.out.plot },
		func(r *resolver) bool { return !r.out.csv }, "excludes -csv"},
	{"progress", false, modeExp, "report sweep progress (runs done/total, runs/s, ETA) on stderr", func(r *resolver) any { return &r.out.progress }, nil, ""},
	{"journal", "", modeExp, "checkpoint completed runs to this JSONL journal and resume from it", func(r *resolver) any { return &r.opts.Journal }, nil, ""},

	// -replay: the timeline.
	{"buckets", 20, modeReplay, "timeline rows (time buckets)", func(r *resolver) any { return &r.buckets },
		func(r *resolver) bool { return r.buckets >= 1 }, "must be >= 1"},
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
	for m, on := range map[mode]bool{modeRun: r.in.run, modeExp: r.exp != "", modeAnalyze: r.in.analyze, modeReplay: r.replay != ""} {
		if on {
			chosen |= m
		}
	}
	switch {
	case chosen == 0:
		fs.Usage()
		return nil, fmt.Errorf("choose a mode: %v", modeAll)
	case chosen&(chosen-1) != 0:
		return nil, fmt.Errorf("%v: choose only one mode", chosen)
	}
	r.mode = chosen
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
	switch r.mode {
	case modeReplay:
		return nil
	case modeExp:
		o := &r.opts
		o.Scale, o.Seed, o.Engine, o.Hist, o.Tenants = in.scale, in.seed, eng, in.hist, tenants
		return nil
	}
	// -run and -analyze: one machine.
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
	case modeAnalyze:
		err = analyze(p.run, stdout)
	case modeReplay:
		err = replay(stdout, p.replay, p.buckets)
	}
	if err != nil {
		fmt.Fprintln(stderr, "cmcpsim:", err)
		return 1
	}
	return 0
}

// experiment runs -exp: each experiment's sweep.
func experiment(p *plan, stdout, stderr io.Writer) error {
	o, id, out := p.opts, p.exp, p.out
	ids := []string{id}
	if id == "all" {
		ids = []string{"fig6", "fig8", "fig7", "table1", "fig9", "fig10", "sense"}
	}
	if out.progress {
		o.Progress = cmcp.NewSweepProgress()
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
		if out.csv {
			fmt.Fprint(stdout, rep.CSV())
		} else {
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
	if o.Progress != nil {
		fmt.Fprintf(stderr, "[sweep] %s\n", o.Progress)
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
			// -replay can warn that the ring overflowed instead of
			// presenting a truncated trace as complete.
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

// analyze runs -analyze: it captures the workload's access trace in
// canonical round-robin order and prints the fault counts of Belady's
// OPT and of online policies replayed with perfect reference
// information, at the frame count a -run of the same flags simulates.
func analyze(cfg cmcp.Config, w io.Writer) error {
	layout, err := cfg.Workload.Build(cfg.Cores)
	if err != nil {
		return err
	}
	tr := trace.Capture(layout, cfg.Seed)
	capacity := machine.Frames(layout.TotalPages, cfg.MemoryRatio, sim.Size4k)
	fmt.Fprintf(w, "trace: %d accesses, %d cores, %d pages; capacity %d pages (%.0f%%)\n\n",
		len(tr.Records), tr.Cores, layout.TotalPages, capacity, cfg.MemoryRatio*100)

	opt, err := trace.OPT(tr, capacity, sim.Size4k)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-22s %9d faults (%.2f%% of accesses)  [lower bound]\n",
		"OPT (Belady/MIN)", opt.Faults, 100*opt.FaultRatio())

	for _, pc := range []struct {
		name string
		pol  trace.CountingPolicy
	}{
		{"FIFO", policy.NewFIFO()},
		{"true LRU (oracle refs)", trace.NewTrueLRU()},
		{"CMCP (p=0.5)", core.New(traceHost{}, capacity, core.WithP(0.5))},
		{"Random", policy.NewRandom(1)},
	} {
		faults, err := trace.CountFaults(tr, capacity, sim.Size4k, pc.pol)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-22s %9d faults (%.2f%% of accesses, %.2fx OPT)\n",
			pc.name, faults, 100*float64(faults)/float64(opt.Accesses),
			float64(faults)/float64(opt.Faults))
	}
	fmt.Fprintln(w, "\nNote: fault counts ignore TLB shootdown costs — the very costs")
	fmt.Fprintln(w, "that make LRU lose at runtime despite its low fault count.")
	return nil
}

// traceHost serves the offline replay: no real PSPT exists, so the
// core-map count is unknown (CMCP falls back to count 1) and access
// bits always read as recently-used for LRU's scanner.
type traceHost struct{}

func (traceHost) CoreMapCount(sim.PageID) int  { return -1 }
func (traceHost) ScanAccessed(sim.PageID) bool { return true }

// replay runs -replay: it loads a JSONL event trace and writes the
// bucketed text timeline plus a per-core activity summary to w.
// Malformed or truncated lines are skipped and counted, not fatal.
func replay(w io.Writer, path string, buckets int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, meta, skipped, err := obs.ReadJSONLMeta(f)
	if err != nil {
		return err
	}
	if skipped > 0 {
		fmt.Fprintf(w, "warning: skipped %d malformed line(s) in %s\n\n", skipped, path)
	}
	if meta != nil {
		// The recorder's ring is bounded: a trace that overflowed it is
		// a sample, not a record, and the timeline below under-counts.
		if meta.Dropped > 0 {
			fmt.Fprintf(w, "warning: recorder dropped %d event(s) (ring full); timeline is incomplete\n\n", meta.Dropped)
		}
		if got := len(events); meta.Events != got {
			fmt.Fprintf(w, "warning: header promises %d events but %d were read; trace is truncated\n\n", meta.Events, got)
		}
	}
	fmt.Fprint(w, obs.Timeline(events, buckets))
	fmt.Fprint(w, coreSummary(events))
	return nil
}

// coreSummary renders per-core event totals: which cores faulted,
// evicted and were interrupted — the skew picture the aggregate
// tables hide.
func coreSummary(events []obs.Event) string {
	type agg struct {
		faults, evictions, shootdowns, lockWait uint64
	}
	perCore := map[sim.CoreID]*agg{}
	for _, e := range events {
		if e.Core == obs.PolicyCore {
			continue // promotions/demotions already shown in the timeline
		}
		a := perCore[e.Core]
		if a == nil {
			a = &agg{}
			perCore[e.Core] = a
		}
		switch e.Type {
		case obs.EvFault, obs.EvMinorFault:
			a.faults++
		case obs.EvEviction:
			a.evictions++
		case obs.EvShootdown:
			a.shootdowns += uint64(e.Arg)
		case obs.EvLockWait:
			a.lockWait += uint64(e.Arg)
		}
	}
	var ids []sim.CoreID
	for c := range perCore {
		ids = append(ids, c)
	}
	slices.Sort(ids)
	s := "\nper-core activity (faults include minor; shootdowns count target cores):\n"
	s += fmt.Sprintf("%8s %10s %10s %12s %16s\n", "core", "faults", "evictions", "shootdowns", "lock_wait_cyc")
	for _, c := range ids {
		a := perCore[c]
		s += fmt.Sprintf("%8d %10d %10d %12d %16d\n", c, a.faults, a.evictions, a.shootdowns, a.lockWait)
	}
	return s
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
