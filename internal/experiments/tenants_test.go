package experiments

import (
	"strconv"
	"strings"
	"testing"

	"cmcp/internal/workload"
)

// TestRejectTenantsUnderFigures pins the CLI bugfix at the experiments
// layer: every paper-figure experiment (and All) must fail loudly when
// a tenant spec is supplied — cmcpsim used to silently drop -tenants
// under -exp, producing single-tenant results labelled as tenant runs.
func TestRejectTenantsUnderFigures(t *testing.T) {
	spec := workload.DefaultTenantSpec(4, 1.1, 0)
	o := quickOpts()
	o.Tenants = &spec
	for _, id := range []string{"fig6", "fig7", "fig8", "fig9", "fig10", "table1", "sense"} {
		if _, err := ByID(id, o); err == nil {
			t.Errorf("%s silently accepted a tenant spec", id)
		} else if !strings.Contains(err.Error(), "tenants") {
			t.Errorf("%s: error %v does not point at the tenants experiment", id, err)
		}
	}
	if _, err := All(o); err == nil {
		t.Error("All silently accepted a tenant spec")
	}
}

// TestTenantGridQuick runs the one experiment that DOES consume the
// tenant spec, with and without an explicit spec.
func TestTenantGridQuick(t *testing.T) {
	o := quickOpts()
	rep, err := TenantGrid(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "tenants" || len(rep.Tables) != 1 {
		t.Fatalf("report shape: %s, %d tables", rep.ID, len(rep.Tables))
	}
	tab := rep.Tables[0]
	if len(tab.Rows) != 4 { // FIFO, CLOCK, LRU, CMCP
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// fairness column must be a real Jain index in (0, 1].
		f, err := strconv.ParseFloat(row.Cells[len(row.Cells)-1], 64)
		if err != nil || f <= 0 || f > 1 {
			t.Errorf("%s: fairness cell %v", row.Label, row.Cells[len(row.Cells)-1])
		}
	}
	// An explicit spec must flow through (and via ByID).
	spec := workload.DefaultTenantSpec(8, 1.3, 100)
	o.Tenants = &spec
	rep2, err := ByID("tenants", o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep2.Title, "8 tenants") {
		t.Errorf("explicit spec ignored: %q", rep2.Title)
	}
}
