package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmcp"
	"cmcp/internal/obs"
)

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
	if err := cmcp.WriteTraceJSONL(f, events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := doReplay(&out, path, 8); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, fmt.Sprintf("timeline: %d events", len(events))) {
		t.Errorf("timeline header missing event count %d:\n%s", len(events), text)
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
	if err := doReplay(&out, filepath.Join(t.TempDir(), "missing.jsonl"), 8); err == nil {
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
	if err := doReplay(&out, path, 4); err != nil {
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

// TestInvalidInvocationsFail pins that no flag is silently ignored: a
// stray argument (after which the flag package stops parsing), two
// modes at once, a flag the chosen mode does not read and an
// out-of-range value each exit 2 with a message naming the offender,
// before any input is read or output written.
func TestInvalidInvocationsFail(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "t.trace")
	for _, tc := range []struct {
		args string
		name string
	}{
		{"", "choose a mode"},
		{"-analyze t.trace extra -ratio 0.3", `"extra"`},
		{"-analyze t.trace -ratio 0", "-ratio"},
		{"-analyze t.trace -ratio -1", "-ratio"},
		{"-analyze t.trace -ratio NaN", "-ratio"},
		{"-analyze t.trace -ratio 2", "-ratio"},
		{"-record -scale 0 -o " + tr, "-scale"},
		{"-record -scale -1 -o " + tr, "-scale"},
		{"-record -cores 0 -o " + tr, "-cores"},
		{"-replay x.jsonl -buckets 0", "-buckets"},
		{"-record -analyze t.trace -o " + tr, "-analyze"},
		{"-replay x.jsonl -journal j.jsonl", "-journal"},
		{"-analyze t.trace -cores 4", "-cores"},
		{"-analyze t.trace -o out.trace", "-o"},
		{"-record -ratio 0.3 -o " + tr, "-ratio"},
		{"-analyze t.trace -buckets 5", "-buckets"},
		{"-journal j.jsonl", "-journal"},
		{"-replay x.jsonl -workload bt.B", "-workload"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.name) {
			t.Errorf("cmcptrace %s: exit %d, stderr %q; want exit 2 naming %s", tc.args, code, stderr.String(), tc.name)
		}
		if stdout.Len() != 0 {
			t.Errorf("cmcptrace %s: printed %q", tc.args, stdout.String())
		}
	}
	if _, err := os.Stat(tr); err == nil {
		t.Error("a refused -record invocation wrote its trace")
	}
}

// TestRecordAnalyze runs both trace modes through run: the trace that
// -record writes is analyzed at the -ratio given.
func TestRecordAnalyze(t *testing.T) {
	tr := filepath.Join(t.TempDir(), "cg.trace")
	for _, tc := range []struct{ args, want string }{
		{"-record -workload cg.B -cores 2 -scale 0.01 -o " + tr, "recorded "},
		{"-analyze " + tr + " -ratio 0.3", "(30%)"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 0 {
			t.Fatalf("cmcptrace %s: exit %d: %s", tc.args, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("cmcptrace %s: output lacks %q:\n%s", tc.args, tc.want, stdout.String())
		}
	}
}
