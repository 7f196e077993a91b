package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureEvents is a small deterministic event set covering every
// event type and all three track kinds (app core, scanner, policy).
func fixtureEvents() []Event {
	return []Event{
		{Time: 1000, Core: 0, Type: EvFault, Page: 17, Arg: 0},
		{Time: 1500, Core: PolicyCore, Type: EvPromotion, Page: 17, Arg: 2},
		{Time: 2100, Core: 1, Type: EvMinorFault, Page: 17, Arg: 0},
		{Time: 2600, Core: 1, Type: EvLockWait, Page: 17, Arg: 420},
		{Time: 5000, Core: 0, Type: EvEviction, Page: 3, Arg: 2},
		{Time: 5000, Core: 0, Type: EvShootdown, Page: 3, Arg: 2},
		{Time: 5200, Core: 0, Type: EvWriteBack, Page: 3, Arg: 4096},
		{Time: 25000, Core: 4, Type: EvScanTick, Page: 0, Arg: 777},
		{Time: 26000, Core: 4, Type: EvShootdown, Page: 9, Arg: 3},
		{Time: 30000, Core: PolicyCore, Type: EvDemotion, Page: 17, Arg: 0},
	}
}

func fixtureSamples() []Sample {
	s1 := Sample{Time: 10000, Resident: 12, FIFOLen: 8, PrioLen: 4, ClockSkew: 230}
	s1.Counters[0] = 5 // page_faults
	s2 := Sample{Time: 20000, Resident: 20, FIFOLen: 11, PrioLen: 9, ClockSkew: 118}
	s2.Counters[0] = 11
	return []Sample{s1, s2}
}

// checkGolden compares got against the named golden file, rewriting it
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestJSONLGolden(t *testing.T) {
	var b bytes.Buffer
	if err := WriteJSONLWithMeta(&b, fixtureEvents(), 0); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "events.jsonl.golden", b.Bytes())
}

// TestJSONLRoundTrip: events survive the writer and the reader, and
// blank lines and an empty trace read back as no events.
func TestJSONLRoundTrip(t *testing.T) {
	events := fixtureEvents()
	var b bytes.Buffer
	if err := WriteJSONLWithMeta(&b, events, 0); err != nil {
		t.Fatal(err)
	}
	back, _, skipped, err := ReadJSONLMeta(&b)
	if err != nil || skipped != 0 {
		t.Fatalf("skipped=%d err=%v", skipped, err)
	}
	if !reflect.DeepEqual(events, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, events)
	}
	evs, meta, skipped, err := ReadJSONLMeta(strings.NewReader("\n\n"))
	if err != nil || len(evs) != 0 || meta != nil || skipped != 0 {
		t.Errorf("blank lines should be skipped: %v %v %d %v", evs, meta, skipped, err)
	}
}

func TestReadJSONLLenient(t *testing.T) {
	events := fixtureEvents()
	var b bytes.Buffer
	if err := WriteJSONLWithMeta(&b, events, 0); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stream the ways real trace files break: a stray log
	// line in the middle, an unknown event type, and a truncated tail.
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	mixed := strings.Join(lines[:2], "\n") + "\nGC pause 12ms\n" +
		strings.Join(lines[2:], "\n") +
		"\n{\"t\":1,\"ev\":\"no_such_event\"}\n" +
		lines[1][:len(lines[1])/2]
	back, meta, skipped, err := ReadJSONLMeta(strings.NewReader(mixed))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 3 {
		t.Errorf("skipped = %d, want 3", skipped)
	}
	if meta == nil || meta.Events != len(events) {
		t.Errorf("header lost: %+v", meta)
	}
	if !reflect.DeepEqual(events, back) {
		t.Fatalf("valid events lost:\n got %+v\nwant %+v", back, events)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, fixtureEvents(), fixtureSamples(), 4); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome.json.golden", b.Bytes())
}

// TestChromeTraceSchema validates the trace_event JSON against the
// format's structural requirements: parseable, a traceEvents array,
// and every entry carrying the mandatory ph/pid fields with the phase
// values this exporter uses (M metadata, i instant, C counter).
func TestChromeTraceSchema(t *testing.T) {
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, fixtureEvents(), fixtureSamples(), 4); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   *float64        `json:"ts"`
			Pid  *int            `json:"pid"`
			Tid  *int            `json:"tid"`
			S    string          `json:"s"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	instants, counters, metas := 0, 0, 0
	var lastTS float64
	for i, e := range doc.TraceEvents {
		if e.Name == "" || e.Pid == nil {
			t.Fatalf("entry %d missing name/pid: %+v", i, e)
		}
		switch e.Ph {
		case "M":
			metas++
		case "i":
			instants++
			if e.Ts == nil || e.Tid == nil || e.S != "t" {
				t.Fatalf("instant %d missing ts/tid/scope: %+v", i, e)
			}
			if *e.Ts < lastTS {
				t.Fatalf("instant %d out of order: ts %v < %v", i, *e.Ts, lastTS)
			}
			lastTS = *e.Ts
			if *e.Tid < 0 {
				t.Fatalf("instant %d has negative tid %d (Perfetto rejects)", i, *e.Tid)
			}
		case "C":
			counters++
			if e.Ts == nil {
				t.Fatalf("counter %d missing ts: %+v", i, e)
			}
		default:
			t.Fatalf("entry %d has unexpected phase %q", i, e.Ph)
		}
	}
	if instants != len(fixtureEvents()) {
		t.Errorf("%d instant events, want %d", instants, len(fixtureEvents()))
	}
	if counters == 0 || metas == 0 {
		t.Errorf("missing counter (%d) or metadata (%d) entries", counters, metas)
	}
}

func TestSamplesCSV(t *testing.T) {
	var b bytes.Buffer
	if err := WriteSamplesCSV(&b, fixtureSamples()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header+2", len(lines))
	}
	if !strings.HasPrefix(lines[1], "10000,12,8,4,230,5,") {
		t.Errorf("row 1 = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "20000,20,11,9,118,11,") {
		t.Errorf("row 2 = %q", lines[2])
	}
}

func TestTimeline(t *testing.T) {
	out := Timeline(fixtureEvents(), 4)
	for _, want := range []string{"10 events", "fault", "tlb_shootdown", "cmcp_promotion", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if got := Timeline(nil, 4); !strings.Contains(got, "no events") {
		t.Errorf("empty timeline = %q", got)
	}
	// Single-instant trace must not divide by a zero bucket width.
	one := []Event{{Time: 5, Type: EvFault}}
	if got := Timeline(one, 8); !strings.Contains(got, "1 events") {
		t.Errorf("single-event timeline = %q", got)
	}
}

func TestJSONLMetaRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONLWithMeta(&buf, fixtureEvents(), 7); err != nil {
		t.Fatal(err)
	}

	events, meta, skipped, err := ReadJSONLMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("meta header counted as skipped: %d", skipped)
	}
	if meta == nil {
		t.Fatal("meta header not returned")
	}
	if meta.Schema != TraceSchema || meta.Events != len(fixtureEvents()) || meta.Dropped != 7 {
		t.Errorf("meta = %+v", *meta)
	}
	if !reflect.DeepEqual(events, fixtureEvents()) {
		t.Error("events did not round-trip past the header")
	}
}

func TestJSONLMetaAbsent(t *testing.T) {
	// A trace without its header line must read back with nil meta.
	events, meta, skipped, err := ReadJSONLMeta(bytes.NewReader(headerless(t)))
	if err != nil || skipped != 0 {
		t.Fatalf("skipped=%d err=%v", skipped, err)
	}
	if meta != nil {
		t.Errorf("phantom meta %+v from header-less trace", *meta)
	}
	if !reflect.DeepEqual(events, fixtureEvents()) {
		t.Error("events did not round-trip")
	}
}

func TestJSONLMetaSecondHeaderSkipped(t *testing.T) {
	// Concatenated logs carry a header per fragment; only the first is
	// meta, the rest count as skipped lines like any unknown object.
	var a, b bytes.Buffer
	if err := WriteJSONLWithMeta(&a, fixtureEvents()[:2], 1); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONLWithMeta(&b, fixtureEvents()[2:4], 0); err != nil {
		t.Fatal(err)
	}
	a.Write(b.Bytes())
	events, meta, skipped, err := ReadJSONLMeta(&a)
	if err != nil {
		t.Fatal(err)
	}
	if meta == nil || meta.Dropped != 1 {
		t.Errorf("first header not kept: %+v", meta)
	}
	if skipped != 1 {
		t.Errorf("second header: skipped = %d, want 1", skipped)
	}
	if len(events) != 4 {
		t.Errorf("got %d events, want 4", len(events))
	}
}

// headerless returns the fixture trace without its metadata header.
func headerless(tb testing.TB) []byte {
	var buf bytes.Buffer
	if err := WriteJSONLWithMeta(&buf, fixtureEvents(), 0); err != nil {
		tb.Fatal(err)
	}
	_, rest, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
	return rest
}

// FuzzReadJSONLMeta feeds arbitrary bytes to the trace reader. Nothing
// may panic, and whatever decodes must survive a round trip:
// re-encoded and read back, it yields the same events and drop count
// with no line skipped.
func FuzzReadJSONLMeta(f *testing.F) {
	var headered bytes.Buffer
	if err := WriteJSONLWithMeta(&headered, fixtureEvents(), 3); err != nil {
		f.Fatal(err)
	}
	f.Add(headered.Bytes())
	f.Add(headerless(f))
	f.Add(headered.Bytes()[:headered.Len()-7]) // torn last line
	f.Add([]byte("{\"t\":1,\"core\":0,\"ev\":\"fault\",\"page\":7,\"arg\":0}\nnot json\n{\"schema\":\"cmcp-trace/v1\",\"events\":9}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// JSON escaping can grow a line up to sixfold; keep re-encoded
		// lines inside the reader's 1 MB line limit.
		if len(data) > 64<<10 {
			return
		}
		events, meta, _, err := ReadJSONLMeta(bytes.NewReader(data))
		if err != nil {
			return
		}
		var dropped uint64
		if meta != nil {
			dropped = meta.Dropped
		}
		var buf bytes.Buffer
		if err := WriteJSONLWithMeta(&buf, events, dropped); err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		again, meta2, skipped, err := ReadJSONLMeta(&buf)
		if err != nil || skipped != 0 {
			t.Fatalf("re-encoded trace: %v (%d lines skipped)\n%s", err, skipped, buf.Bytes())
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("events drifted over a round trip:\n%v\n%v", events, again)
		}
		if want := (TraceMeta{Schema: TraceSchema, Events: len(events), Dropped: dropped}); meta2 == nil || *meta2 != want {
			t.Fatalf("header %+v over a round trip, want %+v", meta2, want)
		}
	})
}
