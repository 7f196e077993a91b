package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"cmcp"
)

var update = flag.Bool("update", false, "rewrite the output golden files")

// modeArgs is the smallest invocation of each mode.
var modeArgs = map[mode][]string{
	modeRun: {"-run"},
	modeExp: {"-exp", "fig7"},
}

// selector names the flag that selects each mode.
var selector = map[mode]string{modeRun: "run", modeExp: "exp"}

// probes holds one valid non-default value per flag, plus the flags
// that make it meaningful (added to both sides of the comparison).
var probes = map[string]struct {
	value string
	with  []string
}{
	"run":          {"true", nil},
	"exp":          {"fig9", nil},
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
	if len(table) != 27 {
		t.Errorf("table has %d flags, want 27", len(table))
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
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != 2 || !names(stderr.String(), tc.flag) {
			t.Errorf("cmcpsim %s: exit %d, stderr %q; want exit 2 naming %s", tc.args, code, stderr.String(), tc.flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("cmcpsim %s: printed %q before failing", tc.args, stdout.String())
		}
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
	"-exp fig7 -quick -scale 0.04 -csv",
	"-exp fig7 -quick -scale 0.04 -csv -journal sweep.jsonl",
	"-exp fig7 -quick -scale 0.04 -csv -journal sweep.jsonl -progress",
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
// carries wall-clock timings and is not compared).
func TestOutputGoldens(t *testing.T) {
	for name, args := range map[string]string{
		"run_cmcp.golden":    "-run -cores 4 -scale 0.05",
		"run_tenants.golden": "-run -cores 4 -scale 0.05 -tenants 16 -zipf-s 1.2 -churn 100",
		"exp_table1.golden":  "-exp table1 -quick -scale 0.04 -csv",
	} {
		golden(t, name, runOK(t, strings.Fields(args)...))
	}
}
