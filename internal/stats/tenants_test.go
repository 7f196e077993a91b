package stats

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTenantCounterNames(t *testing.T) {
	names := TenantCounterNames()
	if len(names) != NumTenantCounters {
		t.Fatalf("%d names for %d counters", len(names), NumTenantCounters)
	}
	seen := map[string]bool{}
	for i, n := range names {
		if n == "" {
			t.Errorf("counter %d unnamed", i)
		}
		if seen[n] {
			t.Errorf("duplicate name %q", n)
		}
		seen[n] = true
		if TenantCounter(i).String() != n {
			t.Errorf("String(%d) = %q, want %q", i, TenantCounter(i).String(), n)
		}
	}
	// The slice must be a copy, not the table itself.
	names[0] = "clobbered"
	if TenantCounterNames()[0] == "clobbered" {
		t.Error("TenantCounterNames exposes the internal table")
	}
}

func TestTenantSetAddGetTotal(t *testing.T) {
	ts := NewTenantSet(3)
	if ts.Tenants() != 3 {
		t.Fatalf("Tenants() = %d", ts.Tenants())
	}
	ts.Add(0, TenantTouches, 5)
	ts.Add(2, TenantTouches, 7)
	ts.Add(1, TenantFaults, 2)
	if ts.Get(0, TenantTouches) != 5 || ts.Get(2, TenantTouches) != 7 {
		t.Error("Get mismatch")
	}
	if ts.Total(TenantTouches) != 12 || ts.Total(TenantFaults) != 2 {
		t.Error("Total mismatch")
	}
	if ts.Total(TenantEvictions) != 0 {
		t.Error("untouched counter nonzero")
	}
}

// TestTenantSetMergePools pins the Repeats-merge semantics: counters
// add (then DivideBy averages), fault histograms pool exactly.
func TestTenantSetMergePools(t *testing.T) {
	a, b := NewTenantSet(2), NewTenantSet(2)
	a.Add(0, TenantFaults, 4)
	b.Add(0, TenantFaults, 2)
	b.Add(1, TenantEvictions, 6)
	a.RecordFault(0, 100)
	a.RecordFault(1, 1000)
	b.RecordFault(0, 200)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Get(0, TenantFaults) != 6 || a.Get(1, TenantEvictions) != 6 {
		t.Error("counters did not add")
	}
	if a.FaultHist(0).Count != 2 || a.FaultHist(1).Count != 1 {
		t.Errorf("histograms did not pool: %d/%d samples",
			a.FaultHist(0).Count, a.FaultHist(1).Count)
	}
	a.DivideBy(2)
	if a.Get(0, TenantFaults) != 3 || a.Get(1, TenantEvictions) != 3 {
		t.Error("DivideBy did not average counters")
	}
	if a.FaultHist(0).Count != 2 {
		t.Error("DivideBy touched the pooled histograms")
	}
	if err := a.Merge(NewTenantSet(3)); err == nil {
		t.Error("merging mismatched tenant counts did not fail")
	}
}

func TestRebaseTenantCounters(t *testing.T) {
	r := NewRun(2)
	ts := r.EnableTenants(2)
	r.Add(1, PageFaults, 3)
	ts.Add(0, TenantTouches, 4)
	ts.RecordFault(0, 50)
	snap := r.SnapshotCounters()
	if want := 3*NumCounters + 2*NumTenantCounters; len(snap) != want {
		t.Fatalf("snapshot holds %d counters, want %d", len(snap), want)
	}
	r.Add(1, PageFaults, 5)
	ts.Add(0, TenantTouches, 6)
	ts.Add(1, TenantFaults, 1)
	r.Rebase(snap)
	if got := r.Get(1, PageFaults); got != 5 {
		t.Errorf("core counter rebased to %d, want 5", got)
	}
	if got := ts.Get(0, TenantTouches); got != 6 {
		t.Errorf("tenant counter rebased to %d, want 6", got)
	}
	if got := ts.Get(1, TenantFaults); got != 1 {
		t.Errorf("tenant counter past the snapshot rebased to %d, want 1", got)
	}
	if ts.FaultHist(0).Count != 1 {
		t.Error("Rebase touched histograms (the barrier resets them instead)")
	}
	ts.ResetHists()
	if ts.FaultHist(0).Count != 0 {
		t.Error("ResetHists left samples behind")
	}
}

func TestTenantFairnessIndex(t *testing.T) {
	ts := NewTenantSet(4)
	if f := ts.FairnessIndex(); f != 1 {
		t.Errorf("no faults: fairness = %v, want 1", f)
	}
	// Two tenants with identical tails: perfectly fair.
	ts.RecordFault(0, 100)
	ts.RecordFault(1, 100)
	if f := ts.FairnessIndex(); f != 1 {
		t.Errorf("equal tails: fairness = %v, want 1", f)
	}
	// A third tenant absorbing a far worse tail drags the index down.
	ts.RecordFault(2, 1<<40)
	if f := ts.FairnessIndex(); f >= 1 || f <= 0 {
		t.Errorf("skewed tails: fairness = %v, want in (0, 1)", f)
	}
}

func TestTenantSetJSONRoundTrip(t *testing.T) {
	ts := NewTenantSet(2)
	ts.Add(0, TenantTouches, 9)
	ts.Add(1, TenantFaults, 3)
	ts.RecordFault(1, 500)
	data, err := json.Marshal(ts)
	if err != nil {
		t.Fatal(err)
	}
	var back TenantSet
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Tenants() != 2 || back.Get(0, TenantTouches) != 9 || back.Get(1, TenantFaults) != 3 {
		t.Error("counters did not round-trip")
	}
	if back.FaultHist(1).Count != 1 {
		t.Error("histogram did not round-trip")
	}
}

func TestTenantSetJSONRejectsBadShape(t *testing.T) {
	for name, blob := range map[string]string{
		"zero-tenants":   `{"tenants":0,"counters":[],"fault_hists":[]}`,
		"short-counters": `{"tenants":2,"counters":[1,2,3],"fault_hists":[{},{}]}`,
		"short-hists":    `{"tenants":2,"counters":[0,0,0,0,0,0,0,0,0,0],"fault_hists":[{}]}`,
	} {
		var ts TenantSet
		if err := json.Unmarshal([]byte(blob), &ts); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRunTenantsMergeAndJSON covers the Run-level plumbing: EnableTenants
// is idempotent, tenant presence must agree across a merge, and the
// per-tenant record rides the Run's own JSON form (omitted when nil, so
// pre-tenant journal records are byte-identical).
func TestRunTenantsMergeAndJSON(t *testing.T) {
	r := NewRun(2)
	ts := r.EnableTenants(3)
	if r.EnableTenants(3) != ts {
		t.Error("EnableTenants is not idempotent")
	}
	ts.Add(1, TenantFaults, 7)

	plain := NewRun(2)
	if err := r.Merge(plain); err == nil {
		t.Error("merging tenant run into tenant-less run did not fail")
	}
	other := NewRun(2)
	other.EnableTenants(3).Add(1, TenantFaults, 5)
	if err := r.Merge(other); err != nil {
		t.Fatal(err)
	}
	if r.Tenants.Get(1, TenantFaults) != 12 {
		t.Error("tenant counters did not merge through Run.Merge")
	}

	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Run
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Tenants == nil || back.Tenants.Get(1, TenantFaults) != 12 {
		t.Error("tenant record did not ride Run JSON")
	}

	bare, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(bare), "tenants") {
		t.Error("tenant-less Run JSON mentions tenants (breaks pre-tenant journal identity)")
	}
}
