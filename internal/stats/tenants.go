package stats

import (
	"encoding/json"
	"fmt"
	"slices"

	"cmcp/internal/hist"
)

// TenantCounter identifies one per-tenant event counter. Tenant
// counters are a projection of the machine-wide ones onto the tenant
// that owns the touched page, so multi-tenant fairness questions can be
// answered without re-running.
type TenantCounter uint8

const (
	// TenantTouches counts memory accesses to the tenant's pages.
	TenantTouches TenantCounter = iota
	// TenantFaults counts major page faults on the tenant's pages.
	TenantFaults
	// TenantMinorFaults counts minor (sibling-resolved) faults.
	TenantMinorFaults
	// TenantEvictions counts the tenant's pages evicted, by anyone.
	TenantEvictions
	// TenantEvictionsCaused counts evictions of OTHER tenants' pages
	// that this tenant's faults forced — its cross-tenant pressure.
	TenantEvictionsCaused

	numTenantCounters
)

// NumTenantCounters is the number of per-tenant counters.
const NumTenantCounters = int(numTenantCounters)

var tenantCounterNames = [NumTenantCounters]string{
	"touches",
	"page_faults",
	"minor_faults",
	"evictions",
	"evictions_caused",
}

// String returns the snake_case counter name used in journals.
func (c TenantCounter) String() string {
	if int(c) < len(tenantCounterNames) {
		return tenantCounterNames[c]
	}
	return fmt.Sprintf("tenant_counter_%d", uint8(c))
}

// TenantCounterNames returns the journal name table in counter order.
func TenantCounterNames() []string {
	out := make([]string, NumTenantCounters)
	copy(out, tenantCounterNames[:])
	return out
}

// TenantSet is the per-tenant measurement record of a multi-tenant run:
// a flat counter matrix plus one fault-service latency histogram per
// tenant. Like Run it is single-writer; the engine serializes updates.
type TenantSet struct {
	n        int
	counters []uint64 // [tenant*NumTenantCounters + counter]
	fault    []hist.H // per-tenant fault-service latency (minor + major)
}

// NewTenantSet returns a zeroed set for n tenants.
func NewTenantSet(n int) *TenantSet {
	return &TenantSet{
		n:        n,
		counters: make([]uint64, n*NumTenantCounters),
		fault:    make([]hist.H, n),
	}
}

// Tenants returns the tenant count.
func (t *TenantSet) Tenants() int { return t.n }

// Add increments tenant's counter c by d.
func (t *TenantSet) Add(tenant int, c TenantCounter, d uint64) {
	t.counters[tenant*NumTenantCounters+int(c)] += d
}

// Get returns tenant's counter c.
func (t *TenantSet) Get(tenant int, c TenantCounter) uint64 {
	return t.counters[tenant*NumTenantCounters+int(c)]
}

// Total sums counter c across all tenants.
func (t *TenantSet) Total(c TenantCounter) uint64 {
	var sum uint64
	for i := 0; i < t.n; i++ {
		sum += t.counters[i*NumTenantCounters+int(c)]
	}
	return sum
}

// RecordFault records one fault-service latency for tenant.
func (t *TenantSet) RecordFault(tenant int, cycles uint64) {
	t.fault[tenant].Record(cycles)
}

// FaultHist returns tenant's fault-service latency histogram.
func (t *TenantSet) FaultHist(tenant int) *hist.H { return &t.fault[tenant] }

// FairnessIndex returns Jain's fairness index over the per-tenant p99
// fault-service latencies, restricted to tenants that faulted at all:
// (Σx)²/(n·Σx²), 1.0 when every tenant sees the same tail and → 1/n as
// one tenant absorbs it. Returns 1 when no tenant faulted.
func (t *TenantSet) FairnessIndex() float64 {
	var sum, sumsq float64
	n := 0
	for i := range t.fault {
		if t.fault[i].Count == 0 {
			continue
		}
		x := float64(t.fault[i].P99())
		sum += x
		sumsq += x * x
		n++
	}
	if n == 0 || sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumsq)
}

// Merge adds o into t: counters add, histograms pool.
func (t *TenantSet) Merge(o *TenantSet) error {
	if t.n != o.n {
		return fmt.Errorf("stats: merging tenant sets of %d and %d tenants", t.n, o.n)
	}
	for i, v := range o.counters {
		t.counters[i] += v
	}
	for i := range o.fault {
		t.fault[i].Merge(&o.fault[i])
	}
	return nil
}

// DivideBy divides every counter by n, matching Run.DivideBy: the
// replicate-merge averages counters while histograms stay pooled.
func (t *TenantSet) DivideBy(n uint64) {
	if n == 0 {
		return
	}
	for i := range t.counters {
		t.counters[i] /= n
	}
}

// ResetHists zeroes every fault histogram (warm-up barrier).
func (t *TenantSet) ResetHists() {
	for i := range t.fault {
		t.fault[i].Reset()
	}
}

// clone deep-copies the set.
func (t *TenantSet) clone() *TenantSet {
	return &TenantSet{n: t.n, counters: slices.Clone(t.counters), fault: slices.Clone(t.fault)}
}

// tenantSetJSON is the journal form of TenantSet.
type tenantSetJSON struct {
	Tenants  int      `json:"tenants"`
	Counters []uint64 `json:"counters"`
	Fault    []hist.H `json:"fault_hists"`
}

// MarshalJSON implements json.Marshaler.
func (t *TenantSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(tenantSetJSON{Tenants: t.n, Counters: t.counters, Fault: t.fault})
}

// UnmarshalJSON implements json.Unmarshaler, validating shape so a
// corrupt journal line cannot produce a set that panics later.
func (t *TenantSet) UnmarshalJSON(b []byte) error {
	var j tenantSetJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	if j.Tenants <= 0 {
		return fmt.Errorf("stats: tenant set with %d tenants", j.Tenants)
	}
	if len(j.Counters) != j.Tenants*NumTenantCounters {
		return fmt.Errorf("stats: tenant set has %d counters, want %d",
			len(j.Counters), j.Tenants*NumTenantCounters)
	}
	if len(j.Fault) != j.Tenants {
		return fmt.Errorf("stats: tenant set has %d fault histograms, want %d",
			len(j.Fault), j.Tenants)
	}
	for i := range j.Fault {
		if !j.Fault[i].CheckInvariant() {
			return fmt.Errorf("stats: tenant %d fault histogram count does not match its buckets (torn record?)", i)
		}
	}
	t.n = j.Tenants
	t.counters = j.Counters
	t.fault = j.Fault
	return nil
}
