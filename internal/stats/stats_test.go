package stats

import (
	"strings"
	"testing"

	"cmcp/internal/sim"
)

func TestCounterNames(t *testing.T) {
	for c := Counter(0); c < Counter(NumCounters); c++ {
		name := c.Name()
		if name == "" || strings.HasPrefix(name, "counter(") {
			t.Errorf("counter %d has no name", c)
		}
	}
	if Counter(200).Name() != "counter(200)" {
		t.Error("out-of-range counter name")
	}
}

func TestRunAddGetTotal(t *testing.T) {
	r := NewRun(4)
	r.Add(0, PageFaults, 10)
	r.Add(1, PageFaults, 20)
	r.Add(3, PageFaults, 30)
	// Scanner pseudo-core must not count toward totals.
	r.Add(sim.ScannerCore(4), PageFaults, 1000)
	if got := r.Get(1, PageFaults); got != 20 {
		t.Errorf("Get = %d", got)
	}
	if got := r.Total(PageFaults); got != 60 {
		t.Errorf("Total = %d, want 60 (scanner excluded)", got)
	}
	if got := r.PerCoreAvg(PageFaults); got != 15 {
		t.Errorf("PerCoreAvg = %v, want 15", got)
	}
}

func TestRunZeroCores(t *testing.T) {
	r := NewRun(0)
	if r.PerCoreAvg(PageFaults) != 0 {
		t.Error("avg over zero cores should be 0")
	}
	if r.Runtime() != 0 {
		t.Error("runtime of empty run should be 0")
	}
}

func TestRunRuntime(t *testing.T) {
	r := NewRun(3)
	r.Finish[0] = 100
	r.Finish[1] = 500
	r.Finish[2] = 300
	r.Finish[3] = 9999 // scanner core must not dominate the makespan
	if got := r.Runtime(); got != 500 {
		t.Errorf("Runtime = %d, want 500", got)
	}
}

func TestRunMerge(t *testing.T) {
	a, b := NewRun(2), NewRun(2)
	a.Add(0, Touches, 5)
	b.Add(0, Touches, 7)
	a.Finish[0], b.Finish[0] = 10, 30
	a.Finish[1], b.Finish[1] = 50, 20
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Get(0, Touches) != 12 {
		t.Errorf("merged counter = %d", a.Get(0, Touches))
	}
	if a.Finish[0] != 30 || a.Finish[1] != 50 {
		t.Errorf("merged finish = %v", a.Finish[:2])
	}
	c := NewRun(3)
	if err := a.Merge(c); err == nil {
		t.Error("merge with mismatched cores must fail")
	}
}

func TestTableString(t *testing.T) {
	tab := &Table{Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow("row1", 1, 2.5)
	tab.AddRow("longer-row", 100, 3.0)
	s := tab.String()
	if !strings.Contains(s, "# demo") {
		t.Error("missing title")
	}
	if !strings.Contains(s, "2.50") {
		t.Error("float cell not formatted: " + s)
	}
	if !strings.Contains(s, "3") || strings.Contains(s, "3.00") {
		t.Error("integral float should render without decimals: " + s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Errorf("expected 4 lines, got %d", len(lines))
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Columns: []string{"x,y", "z"}}
	tab.AddRow(`quo"te`, "v1", "v2")
	csv := tab.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Error("comma in header must be quoted: " + csv)
	}
	if !strings.Contains(csv, `"quo""te"`) {
		t.Error("quote must be doubled: " + csv)
	}
	if !strings.HasPrefix(csv, "label,") {
		t.Error("missing header")
	}
}

func TestFormatFloat(t *testing.T) {
	if FormatFloat(42) != "42" {
		t.Error(FormatFloat(42))
	}
	if FormatFloat(0.135) != "0.14" {
		t.Error(FormatFloat(0.135))
	}
	if FormatFloat(1e20) == "" {
		t.Error("huge float must render")
	}
}

func TestRunDivideBy(t *testing.T) {
	r := NewRun(2)
	r.Add(0, PageFaults, 10)
	r.Finish[0] = 100
	r.DivideBy(2)
	if r.Get(0, PageFaults) != 5 || r.Finish[0] != 50 {
		t.Errorf("DivideBy: faults=%d finish=%d", r.Get(0, PageFaults), r.Finish[0])
	}
	r.DivideBy(1) // no-op
	if r.Get(0, PageFaults) != 5 {
		t.Error("DivideBy(1) must be a no-op")
	}
}

// TestCounterNamesComplete is the desync guard for the counter string
// table: every counter must have a distinct, non-empty snake_case name
// (internal/obs cross-checks its event names and CSV headers against
// this same table).
func TestCounterNamesComplete(t *testing.T) {
	names := CounterNames()
	if len(names) != NumCounters {
		t.Fatalf("CounterNames() has %d entries, want %d", len(names), NumCounters)
	}
	seen := map[string]bool{}
	for i, name := range names {
		if name == "" {
			t.Errorf("counter %d has no name", i)
		}
		if seen[name] {
			t.Errorf("duplicate counter name %q", name)
		}
		seen[name] = true
		if name != strings.ToLower(name) || strings.ContainsAny(name, " -") {
			t.Errorf("counter name %q is not snake_case", name)
		}
		if got := Counter(i).Name(); got != name {
			t.Errorf("Counter(%d).Name() = %q, want %q", i, got, name)
		}
	}
	// The returned slice is a copy: callers cannot corrupt the table.
	names[0] = "tampered"
	if Counter(0).Name() == "tampered" {
		t.Error("CounterNames must return a copy")
	}
}

// TestHistNamesComplete mirrors TestCounterNamesComplete for the
// histogram string table: distinct, non-empty snake_case names, and no
// collision with any counter name — the journal header and the -run
// summary label values from both tables, so a cross-table duplicate
// would give two quantities one name.
func TestHistNamesComplete(t *testing.T) {
	names := HistNames()
	if len(names) != NumHists {
		t.Fatalf("HistNames() has %d entries, want %d", len(names), NumHists)
	}
	seen := map[string]bool{}
	for _, n := range CounterNames() {
		seen[n] = true
	}
	for i, name := range names {
		if name == "" {
			t.Errorf("histogram %d has no name", i)
		}
		if seen[name] {
			t.Errorf("histogram name %q duplicates a counter or histogram name", name)
		}
		seen[name] = true
		if name != strings.ToLower(name) || strings.ContainsAny(name, " -") {
			t.Errorf("histogram name %q is not snake_case", name)
		}
		if got := HistID(i).Name(); got != name {
			t.Errorf("HistID(%d).Name() = %q, want %q", i, got, name)
		}
	}
	names[0] = "tampered"
	if HistID(0).Name() == "tampered" {
		t.Error("HistNames must return a copy")
	}
}

func TestRunMergeHistPresence(t *testing.T) {
	a, b := NewRun(2), NewRun(2)
	a.EnableHists().Record(FaultServiceHist, 100)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging hist-bearing into bare run must fail")
	}
	if err := b.Merge(a); err == nil {
		t.Fatal("merging bare into hist-bearing run must fail")
	}
	b.EnableHists().Record(FaultServiceHist, 200)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	h := a.Hists.Get(FaultServiceHist)
	if h.Count != 2 || h.Sum != 300 || h.Max != 200 {
		t.Errorf("merged hist = %+v", *h)
	}
}

// TestRunDivideByPoolsHists pins the Repeats-averaging contract:
// counters divide, histograms stay pooled (exact merged distribution).
func TestRunDivideByPoolsHists(t *testing.T) {
	r := NewRun(1)
	r.Add(0, PageFaults, 10)
	hs := r.EnableHists()
	hs.Record(FaultServiceHist, 7)
	hs.Record(FaultServiceHist, 9)
	r.DivideBy(2)
	if r.Get(0, PageFaults) != 5 {
		t.Errorf("counter not divided: %d", r.Get(0, PageFaults))
	}
	h := r.Hists.Get(FaultServiceHist)
	if h.Count != 2 || h.Sum != 16 {
		t.Errorf("histogram must stay pooled after DivideBy: %+v", *h)
	}
}

func TestCloneDeepCopiesHists(t *testing.T) {
	r := NewRun(1)
	r.EnableHists().Record(EvictionHist, 42)
	r.EnableTenants(2).RecordFault(1, 7)
	c := r.Clone()
	c.Hists.Record(EvictionHist, 43)
	c.Tenants.RecordFault(1, 8)
	c.Tenants.Add(0, TenantTouches, 1)
	if got := r.Hists.Get(EvictionHist).Count; got != 1 {
		t.Errorf("clone aliased the original's histograms (count %d)", got)
	}
	if got := r.Tenants.FaultHist(1).Count; got != 1 {
		t.Errorf("clone aliased the original's tenant histograms (count %d)", got)
	}
	if got := r.Tenants.Get(0, TenantTouches); got != 0 {
		t.Errorf("clone aliased the original's tenant counters (touches %d)", got)
	}
}
