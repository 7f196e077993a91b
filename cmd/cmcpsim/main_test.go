package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"cmcp"
	"cmcp/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the output golden files")

// modeArgs is the smallest invocation of each mode.
var modeArgs = map[mode][]string{
	modeRun:     {"-run"},
	modeExp:     {"-exp", "fig7"},
	modeAnalyze: {"-analyze"},
	modeReplay:  {"-replay", "x.jsonl"},
}

// selector names the flag that selects each mode.
var selector = map[mode]string{modeRun: "run", modeExp: "exp", modeAnalyze: "analyze", modeReplay: "replay"}

// probes holds one valid non-default value per flag, plus the flags
// that make it meaningful (added to both sides of the comparison).
var probes = map[string]struct {
	value string
	with  []string
}{
	"run":          {"true", nil},
	"exp":          {"fig9", nil},
	"analyze":      {"true", nil},
	"replay":       {"y.jsonl", nil},
	"engine":       {"parallel", nil},
	"scale":        {"0.5", nil},
	"seed":         {"7", nil},
	"tenants":      {"8", nil},
	"zipf-s":       {"1.5", []string{"-tenants", "8"}},
	"churn":        {"100", []string{"-tenants", "8"}},
	"hist":         {"true", nil},
	"workload":     {"bt.B", nil},
	"cores":        {"8", nil},
	"ratio":        {"0.25", nil},
	"policy":       {"LRU", nil},
	"p":            {"0.5", nil},
	"dynamic-p":    {"true", nil},
	"tables":       {"regular", nil},
	"pagesize":     {"64k", nil},
	"trace":        {"true", nil},
	"trace-out":    {"t.jsonl", []string{"-trace"}},
	"sample-every": {"1000", nil},
	"quick":        {"true", nil},
	"parallel":     {"2", nil},
	"repeats":      {"3", nil},
	"csv":          {"true", nil},
	"plot":         {"true", nil},
	"progress":     {"true", nil},
	"journal":      {"j.jsonl", nil},
	"buckets":      {"8", nil},
}

// names reports whether msg mentions flag as a whole word ("-p", not
// the "-p" inside "-policy").
func names(msg, flag string) bool {
	return regexp.MustCompile(`(^|[\s|:("])` + regexp.QuoteMeta(flag) + `\b`).MatchString(msg)
}

func concat(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func TestFlagTable(t *testing.T) {
	if len(table) != 30 {
		t.Errorf("table has %d flags, want 30", len(table))
	}
	var names, probed []string
	for _, rw := range table {
		names = append(names, rw.name)
	}
	for name := range probes {
		probed = append(probed, name)
	}
	sort.Strings(names)
	sort.Strings(probed)
	if !reflect.DeepEqual(names, probed) {
		t.Errorf("probe values cover %v,\nthe table holds %v", probed, names)
	}
	// Registration panics on a default whose type does not match its
	// field; resolving once registers every row.
	if _, err := resolve([]string{"-run"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestEveryFlagReachesThePlanOrErrors is the flag × mode matrix: a flag
// given in a mode its row lists must change the resolved plan (and, for
// the -run config, its sweep key); in any other mode it must fail with
// an error that names it.
func TestEveryFlagReachesThePlanOrErrors(t *testing.T) {
	for _, rw := range table {
		pr := probes[rw.name]
		flagArg := []string{"-" + rw.name + "=" + pr.value}
		for _, m := range modes {
			base := modeArgs[m]
			if rw.modes&m == 0 {
				_, err := resolve(concat(base, flagArg), io.Discard)
				if err == nil || !names(err.Error(), "-"+rw.name) {
					t.Errorf("%v %v: err = %v, want an error naming -%s", base, flagArg, err, rw.name)
				}
				continue
			}
			if selector[m] == rw.name {
				// The selector is what turns "no mode" into a plan.
				if _, err := resolve(nil, io.Discard); err == nil {
					t.Error("resolving no flags succeeded; want a usage error")
				}
				if _, err := resolve(concat(base, flagArg), io.Discard); err != nil {
					t.Errorf("%v %v: %v", base, flagArg, err)
				}
				continue
			}
			before, err := resolve(concat(base, pr.with), io.Discard)
			if err != nil {
				t.Errorf("baseline %v: %v", concat(base, pr.with), err)
				continue
			}
			args := concat(base, pr.with, flagArg)
			after, err := resolve(args, io.Discard)
			if err != nil {
				t.Errorf("%v: %v", args, err)
				continue
			}
			if reflect.DeepEqual(before, after) {
				t.Errorf("%v: the plan did not change; the flag is silently ignored", args)
			}
			if m == modeRun && !reflect.DeepEqual(before.run, after.run) && rw.name != "engine" {
				// Engine is the one Config field the sweep key leaves out:
				// both engines produce bit-identical Results.
				k0, err0 := cmcp.SweepKey(before.run)
				k1, err1 := cmcp.SweepKey(after.run)
				if err0 != nil || err1 != nil || k0 == k1 {
					t.Errorf("%v: sweep key %s -> %s (errs %v, %v); want a new key", args, k0, k1, err0, err1)
				}
			}
		}
	}
}

// TestInvalidInvocationsFail: a flag from another mode, an
// out-of-range value, a flag without its prerequisite or a removed flag
// exits 2 before any work starts, with a message naming the offending
// flag.
func TestInvalidInvocationsFail(t *testing.T) {
	for _, tc := range []struct {
		args string
		flag string
	}{
		{"-run -exp fig7", "-exp"},
		{"-run -csv", "-csv"},
		{"-run -compact-out x", "-compact-out"},
		{"-exp fig7 -trace", "-trace"},
		{"-run -policy FIFO -p 0.5", "-p"},
		{"-run -policy LRU -dynamic-p", "-dynamic-p"},
		{"-run -tenants 8 -workload bt.B", "-workload"},
		{"-run -ratio 0", "-ratio"},
		{"-run -ratio 2", "-ratio"},
		{"-run -scale 0", "-scale"},
		{"-run -scale -1", "-scale"},
		{"-exp fig7 -repeats 0", "-repeats"},
		{"-exp fig7 -journal j.jsonl -shard 0/2x", "-shard"},
		{"-exp fig7 -parallel -1", "-parallel"},
		{"-run -sockets 2", "-sockets"},
		{"-run -cores 0", "-cores"},
		{"-run -fault-rate 1e-4", "-fault-rate"},
		{"-run -fault-seed 2", "-fault-seed"},
		{"-run -zipf-s 1.5", "-zipf-s"},
		{"-exp tenants -churn 100", "-churn"},
		{"-run -serve-grace 1s", "-serve-grace"},
		{"-exp fig7 -shard 0/2", "-shard"},
		{"-exp fig7 -journal j.jsonl -shard 0/2", "-shard"},
		{"-exp fig7 -journal-import a.jsonl", "-journal-import"},
		{"-exp fig7 -schedule-from a.jsonl", "-schedule-from"},
		{"-compact-journal a.jsonl", "-compact-journal"},
		{"-exp fig7 -csv -plot", "-plot"},
		{"-bench", "-bench"},
		{"-run -hist true", "true"},
		{"-run -pagesize adaptive", "-pagesize"},
		{"-run -policy CMCP -p NaN", "-p"},
		{"-run -tenants 4 -zipf-s NaN", "-zipf-s"},
		{"-run -scale +Inf", "-scale"},
		{"-run -p 1.5", "-p"},
		{"-run -p -0.5", "-p"},
		{"-run -tenants 4 -churn -5", "-churn"},
		{"-run -tenants 4 -zipf-s -1", "-zipf-s"},
	} {
		refused(t, tc.args, tc.flag)
	}
}

// TestAnalyzeReplayInvalidInvocationsFail is the same check for the
// trace modes, -analyze and -replay, and for the removed -record and -o
// of the access-trace files.
func TestAnalyzeReplayInvalidInvocationsFail(t *testing.T) {
	for _, tc := range []struct {
		args string
		flag string
	}{
		{"", "choose a mode"},
		{"-analyze extra -ratio 0.3", "extra"},
		{"-analyze -replay x.jsonl", "-replay"},
		{"-analyze -ratio 0", "-ratio"},
		{"-analyze -ratio -1", "-ratio"},
		{"-analyze -ratio NaN", "-ratio"},
		{"-analyze -ratio 2", "-ratio"},
		{"-analyze -scale 0", "-scale"},
		{"-analyze -scale -1", "-scale"},
		{"-analyze -cores 0", "-cores"},
		{"-analyze -policy LRU", "-policy"},
		{"-analyze -tenants 8", "-tenants"},
		{"-analyze -buckets 5", "-buckets"},
		{"-analyze -workload nope", "-workload"},
		{"-replay x.jsonl -buckets 0", "-buckets"},
		{"-replay x.jsonl -journal j.jsonl", "-journal"},
		{"-replay x.jsonl -cores 4", "-cores"},
		{"-replay x.jsonl -workload bt.B", "-workload"},
		{"-record", "-record"},
		{"-o cg.trace", "-o"},
	} {
		refused(t, tc.args, tc.flag)
	}
}

// refused runs cmcpsim with args and fails t unless it exits 2 with a
// message naming flag and prints nothing to stdout.
func refused(t *testing.T, args, flag string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(strings.Fields(args), &stdout, &stderr)
	if code != 2 || !names(stderr.String(), flag) {
		t.Errorf("cmcpsim %s: exit %d, stderr %q; want exit 2 naming %s", args, code, stderr.String(), flag)
	}
	if stdout.Len() != 0 {
		t.Errorf("cmcpsim %s: printed %q before failing", args, stdout.String())
	}
}

// TestOutdatedJournalRefused pins that a journal written under an
// older schema, whose content keys this build no longer computes, is
// refused as outdated rather than silently re-run: v4, and v9, the
// schema just before the current one.
func TestOutdatedJournalRefused(t *testing.T) {
	for _, v := range []string{"v4", "v9"} {
		path := filepath.Join(t.TempDir(), v+".jsonl")
		if err := os.WriteFile(path, []byte(`{"schema":"cmcp-sweep/`+v+`","counters":[],"hists":[]}`+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		code := run([]string{"-exp", "table1", "-quick", "-scale", "0.04", "-journal", path}, &stdout, &stderr)
		if code == 0 || !strings.Contains(stderr.String(), "outdated") {
			t.Errorf("%s journal: exit %d, stderr %q; want a failure saying the journal is outdated", v, code, stderr.String())
		}
	}
}

// documented is every complete cmcpsim invocation in the CI workflow
// and the README, and nothing else. Each must keep resolving.
var documented = []string{
	// .github/workflows/ci.yml
	"-run -policy CMCP -tenants 64 -zipf-s 1.2 -churn 250 -cores 16 -scale 0.5 -engine parallel -hist",
	"-run -cores 4 -scale 0.05 -trace -trace-out run.jsonl",
	"-replay run.jsonl -buckets 8",
	"-analyze -workload cg.B -cores 4 -scale 0.05",
	"-exp fig7 -quick -scale 0.25 -csv",
	"-exp fig7 -quick -scale 0.25 -csv -journal sweep.jsonl -parallel 1",
	"-exp fig7 -quick -scale 0.25 -csv -journal sweep.jsonl -progress",
	// README.md
	"-exp all",
	"-exp fig7 -quick",
	"-exp fig8 -plot",
	"-exp sense",
	"-exp table1 -csv",
	"-run -workload bt.B -cores 56 -ratio 0.62 -policy CMCP -p 0.5 -tables pspt -pagesize 4k",
	"-exp fig7 -journal fig7.jsonl -progress",
	"-run -policy CMCP -trace -trace-out run.json -sample-every 100000",
	"-run -policy LRU -trace -trace-out run.jsonl",
	"-replay run.jsonl -buckets 24",
	"-analyze -workload cg.B -cores 16 -scale 0.1 -ratio 0.4",
	"-analyze",
	"-run -policy CMCP -hist",
	"-exp fig7 -hist -journal f7.jsonl",
	"-exp all -hist -journal all.jsonl -progress",
}

// TestDocumentedInvocationsResolve checks the table both ways: every
// command the CI workflow or the README runs is in documented, and
// every row of documented is still run by one of them, so a stale row
// cannot linger after its command leaves the docs.
func TestDocumentedInvocationsResolve(t *testing.T) {
	listed := map[string]bool{}
	for _, inv := range documented {
		listed[inv] = true
		if _, err := resolve(strings.Fields(inv), io.Discard); err != nil {
			t.Errorf("cmcpsim %s: %v", inv, err)
		}
	}
	ran := map[string]bool{}
	for _, path := range []string{"../../.github/workflows/ci.yml", "../../README.md"} {
		for _, inv := range invocations(t, path) {
			ran[inv] = true
			if !listed[inv] {
				t.Errorf("%s runs `cmcpsim %s`, which the documented table lacks", path, inv)
			}
		}
	}
	for _, inv := range documented {
		if !ran[inv] {
			t.Errorf("documented row `cmcpsim %s` appears in neither ci.yml nor README.md", inv)
		}
	}
}

// invocations extracts the arguments of every cmcpsim command line in
// a CI workflow, or in the fenced code blocks of a Markdown file.
func invocations(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fenced := strings.HasSuffix(path, ".md")
	inFence := !fenced
	var out []string
	for _, line := range strings.Split(strings.ReplaceAll(string(data), "\\\n", " "), "\n") {
		if fenced && strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		i := strings.Index(line, "cmcpsim -")
		if !inFence || i < 0 {
			continue
		}
		var args []string
		for _, tok := range strings.Fields(line[i+len("cmcpsim "):]) {
			if strings.ContainsAny(tok[:1], ">&|#") || strings.HasPrefix(tok, "2>") {
				break
			}
			args = append(args, tok)
		}
		out = append(out, strings.Join(args, " "))
	}
	return out
}

// golden compares got with testdata/name, or rewrites it under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/cmcpsim -update` to create)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// runOK runs cmcpsim in-process and returns its stdout.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("cmcpsim %v: exit %d: %s", args, code, stderr.String())
	}
	return stdout.String()
}

// TestOutputGoldens pins each mode's stdout byte for byte (stderr
// carries wall-clock timings and is not compared). replay.jsonl is the
// trace of `-run -workload cg.B -cores 2 -scale 0.001 -trace`.
func TestOutputGoldens(t *testing.T) {
	for name, args := range map[string]string{
		"run_cmcp.golden":    "-run -cores 4 -scale 0.05",
		"run_tenants.golden": "-run -cores 4 -scale 0.05 -tenants 16 -zipf-s 1.2 -churn 100",
		"exp_table1.golden":  "-exp table1 -quick -scale 0.04 -csv",
		"analyze_cg.golden":  "-analyze -workload cg.B -cores 16 -scale 0.1 -ratio 0.4",
		"replay.golden":      "-replay testdata/replay.jsonl -buckets 8",
	} {
		golden(t, name, runOK(t, strings.Fields(args)...))
	}
}

// TestAnalyzeCapacityMatchesRun pins one meaning of -ratio: -analyze
// bounds the device that -run of the same flags simulates, at a config
// where the trace's largest page number and the layout's page count
// differ.
func TestAnalyzeCapacityMatchesRun(t *testing.T) {
	args := "-workload SCALE -cores 16 -scale 0.1 -ratio 0.4"
	p, err := resolve(strings.Fields("-run "+args), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cmcp.Simulate(p.run)
	if err != nil {
		t.Fatal(err)
	}
	out := runOK(t, strings.Fields("-analyze "+args)...)
	want := fmt.Sprintf("%d pages; capacity %d pages (40%%)", res.TotalPages, res.Frames)
	if res.Frames != 737 || !strings.HasPrefix(out, "trace: 360000 accesses, 16 cores, "+want) {
		t.Errorf("-run simulates %d pages on %d frames (want 737 frames); -analyze printed\n%s", res.TotalPages, res.Frames, out)
	}
}

// TestReplayRoundTrip exercises the full observability pipeline:
// simulate with a flight recorder, export JSONL, replay through the
// -replay timeline renderer, and check the timeline totals match the
// recorded events.
func TestReplayRoundTrip(t *testing.T) {
	rec := cmcp.NewRecorder(cmcp.RecorderConfig{Events: 1 << 20})
	_, err := cmcp.Simulate(cmcp.Config{
		Cores:       4,
		Workload:    cmcp.SCALE().Scale(0.02),
		MemoryRatio: 0.5,
		Tables:      cmcp.PSPT,
		Policy:      cmcp.PolicySpec{Kind: cmcp.CMCP, P: 0.5},
		Seed:        7,
		Probe:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("recorder captured nothing")
	}

	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cmcp.WriteTraceJSONLWithMeta(f, events, rec.Dropped()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := replay(&out, path, 8); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.HasPrefix(text, fmt.Sprintf("timeline: %d events", len(events))) {
		t.Errorf("want no warning and a timeline header with event count %d:\n%s", len(events), text)
	}
	var faults uint64
	for _, e := range events {
		if e.Type == obs.EvFault {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("constrained run recorded no faults")
	}
	if !strings.Contains(text, "fault") || !strings.Contains(text, "per-core activity") {
		t.Errorf("replay output missing sections:\n%s", text)
	}
	// Every application core appears in the per-core summary.
	for c := 0; c < 4; c++ {
		if !strings.Contains(text, fmt.Sprintf("\n%8d ", c)) {
			t.Errorf("core %d missing from per-core summary:\n%s", c, text)
		}
	}
}

func TestReplayErrors(t *testing.T) {
	var out bytes.Buffer
	if err := replay(&out, filepath.Join(t.TempDir(), "missing.jsonl"), 8); err == nil {
		t.Error("missing file accepted")
	}
}

// TestReplaySkipsMalformedLines pins the lenient-replay contract: a
// trace with garbage interleaved (truncated tail, stray log lines)
// still renders, reporting how much was dropped instead of dying on the
// first bad record.
func TestReplaySkipsMalformedLines(t *testing.T) {
	content := `{"t":100,"core":0,"ev":"fault","page":7,"arg":0}
not json at all
{"t":200,"core":1,"ev":"eviction","page":9,"arg":1}
{"t":300,"core":0,"ev":"no_such_event","page":1,"arg":0}
{"t":400,"core":1,"ev":"writeback","pa`
	path := filepath.Join(t.TempDir(), "mixed.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := replay(&out, path, 4); err != nil {
		t.Fatalf("lenient replay failed: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "skipped 3 malformed line(s)") {
		t.Errorf("missing skip summary:\n%s", text)
	}
	if !strings.Contains(text, "timeline: 2 events") {
		t.Errorf("valid events not replayed:\n%s", text)
	}
}

func TestCoreSummaryAggregation(t *testing.T) {
	events := []obs.Event{
		{Time: 1, Core: 0, Type: obs.EvFault, Page: 1},
		{Time: 2, Core: 0, Type: obs.EvMinorFault, Page: 1},
		{Time: 3, Core: 0, Type: obs.EvShootdown, Page: 1, Arg: 3},
		{Time: 4, Core: 1, Type: obs.EvEviction, Page: 2, Arg: 1},
		{Time: 5, Core: 1, Type: obs.EvLockWait, Page: 2, Arg: 250},
		{Time: 6, Core: obs.PolicyCore, Type: obs.EvPromotion, Page: 2, Arg: 2},
	}
	s := coreSummary(events)
	if strings.Contains(s, "policy\n") {
		t.Error("policy pseudo-core must not appear in the per-core table")
	}
	want0 := fmt.Sprintf("%8d %10d %10d %12d %16d", 0, 2, 0, 3, 0)
	want1 := fmt.Sprintf("%8d %10d %10d %12d %16d", 1, 0, 1, 0, 250)
	if !strings.Contains(s, want0) || !strings.Contains(s, want1) {
		t.Errorf("summary rows wrong:\n%s", s)
	}
}
