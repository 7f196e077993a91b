// Command cmcptrace records page-access traces of the simulator's
// workloads and analyzes them offline, including Belady's optimal
// (MIN) fault count — the clairvoyant lower bound that shows how much
// headroom the online policies (FIFO, LRU, CMCP) leave.
//
//	cmcptrace -record -workload cg.B -cores 16 -o cg.trace
//	cmcptrace -analyze cg.trace -ratio 0.4
//
// It also replays flight-recorder event traces (the JSONL files that
// `cmcpsim -run -trace -trace-out x.jsonl` records) into a bucketed
// text timeline:
//
//	cmcptrace -replay run.jsonl -buckets 24
//
// The three modes are exclusive. A stray argument, a flag the chosen
// mode does not read, or an out-of-range value is a usage error (exit
// 2) that names the flag, never silently ignored.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"cmcp/internal/core"
	"cmcp/internal/obs"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/trace"
	"cmcp/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// modes are cmcptrace's exclusive modes, each selected by the flag of
// the same name.
var modes = []string{"record", "analyze", "replay"}

// flagMode names the one mode that reads each non-selector flag.
var flagMode = map[string]string{
	"workload": "record", "cores": "record", "scale": "record", "seed": "record", "o": "record",
	"ratio":   "analyze",
	"buckets": "replay",
}

// run executes one cmcptrace invocation and returns its exit status:
// 0 on success, 1 when the work fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cmcptrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		record  = fs.Bool("record", false, "record a workload trace")
		analyze = fs.String("analyze", "", "trace file to analyze")
		replay  = fs.String("replay", "", "flight-recorder JSONL event trace to render as a timeline")
		buckets = fs.Int("buckets", 20, "with -replay: time buckets, >= 1")
		wlName  = fs.String("workload", "cg.B", "with -record: workload: bt.B|lu.B|cg.B|SCALE")
		cores   = fs.Int("cores", 16, "with -record: cores, >= 1")
		scale   = fs.Float64("scale", 0.1, "with -record: workload scale, > 0")
		seed    = fs.Uint64("seed", 42, "with -record: seed")
		out     = fs.String("o", "workload.trace", "with -record: output file")
		ratio   = fs.Float64("ratio", 0.5, "with -analyze: memory capacity as a fraction of the footprint, in (0, 1]")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "cmcptrace: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q: flags after it would be ignored", fs.Arg(0))
	}
	var chosen []string
	for i, on := range []bool{*record, *analyze != "", *replay != ""} {
		if on {
			chosen = append(chosen, modes[i])
		}
	}
	switch len(chosen) {
	case 0:
		fs.Usage()
		return usage("choose a mode: -record, -analyze or -replay")
	case 1:
	default:
		return usage("-%s and -%s: choose only one mode", chosen[0], chosen[1])
	}
	mode := chosen[0]
	var misplaced string
	fs.Visit(func(f *flag.Flag) {
		if m, ok := flagMode[f.Name]; ok && m != mode && misplaced == "" {
			misplaced = fmt.Sprintf("-%s is not valid with -%s (it applies to -%s)", f.Name, mode, m)
		}
	})
	if misplaced != "" {
		return usage("%s", misplaced)
	}
	// NaN fails every comparison, so each range is written as a
	// negated "in range" test.
	for _, c := range []struct {
		name string
		ok   bool
		want string
	}{
		{"ratio", *ratio > 0 && *ratio <= 1, "must be in (0, 1]"},
		{"scale", *scale > 0, "must be > 0"},
		{"cores", *cores >= 1, "must be >= 1"},
		{"buckets", *buckets >= 1, "must be >= 1"},
	} {
		if !c.ok {
			return usage("-%s %s: %s", c.name, fs.Lookup(c.name).Value, c.want)
		}
	}

	var err error
	switch mode {
	case "record":
		err = doRecord(stdout, *wlName, *cores, *scale, *seed, *out)
	case "analyze":
		err = doAnalyze(stdout, *analyze, *ratio)
	case "replay":
		err = doReplay(stdout, *replay, *buckets)
	}
	if err != nil {
		fmt.Fprintln(stderr, "cmcptrace:", err)
		return 1
	}
	return 0
}

// doReplay loads a flight-recorder JSONL event trace and writes the
// bucketed text timeline plus a per-core activity summary to w. Traces
// come from interrupted or concatenated runs often enough that the read
// is lenient: malformed or truncated lines are skipped and counted, not
// fatal.
func doReplay(w io.Writer, path string, buckets int) error {
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
	sortCoreIDs(ids)
	s := "\nper-core activity (faults include minor; shootdowns count target cores):\n"
	s += fmt.Sprintf("%8s %10s %10s %12s %16s\n", "core", "faults", "evictions", "shootdowns", "lock_wait_cyc")
	for _, c := range ids {
		a := perCore[c]
		s += fmt.Sprintf("%8d %10d %10d %12d %16d\n", c, a.faults, a.evictions, a.shootdowns, a.lockWait)
	}
	return s
}

func sortCoreIDs(ids []sim.CoreID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

func doRecord(w io.Writer, wlName string, cores int, scale float64, seed uint64, out string) error {
	spec, ok := workload.ByName(wlName)
	if !ok {
		return fmt.Errorf("unknown workload %q", wlName)
	}
	layout, err := spec.Scale(scale).Build(cores)
	if err != nil {
		return err
	}
	tr := trace.Capture(layout, seed)
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.Write(f); err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "recorded %d accesses on %d cores (%d distinct pages) to %s (%.1f KB, %.2f B/access)\n",
		len(tr.Records), tr.Cores, tr.MaxVPN()+1, out,
		float64(fi.Size())/1024, float64(fi.Size())/float64(len(tr.Records)))
	return f.Close()
}

func doAnalyze(w io.Writer, path string, ratio float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return err
	}
	footprint := int(tr.MaxVPN()) + 1
	capacity := int(ratio * float64(footprint))
	if capacity < 1 {
		capacity = 1
	}
	fmt.Fprintf(w, "trace: %d accesses, %d cores, %d pages; capacity %d pages (%.0f%%)\n\n",
		len(tr.Records), tr.Cores, footprint, capacity, ratio*100)

	opt, err := trace.OPT(tr, capacity, sim.Size4k)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-22s %9d faults (%.2f%% of accesses)  [lower bound]\n",
		"OPT (Belady/MIN)", opt.Faults, 100*opt.FaultRatio())

	// Online policies replayed with perfect reference information.
	host := traceHost{}
	for _, pc := range []struct {
		name string
		pol  trace.CountingPolicy
	}{
		{"FIFO", policy.NewFIFO()},
		{"true LRU (oracle refs)", trace.NewTrueLRU()},
		{"CMCP (p=0.5)", core.New(host, capacity, core.WithP(0.5))},
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
