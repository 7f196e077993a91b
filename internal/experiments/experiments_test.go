package experiments

import (
	"strconv"
	"strings"
	"testing"

	"cmcp/internal/workload"
)

// quickOpts keeps test runs fast: tiny footprints, 4-8 cores.
func quickOpts() Options {
	return Options{Scale: 0.04, Quick: true, Seed: 3}
}

func TestConstraintKnown(t *testing.T) {
	for _, s := range workload.Apps() {
		c := Constraint(s.Name)
		if c <= 0 || c >= 1 {
			t.Errorf("%s: constraint %v", s.Name, c)
		}
	}
	if Constraint("unknown") != 0.5 {
		t.Error("default constraint")
	}
}

func TestCmcpPPerWorkload(t *testing.T) {
	// The paper's §5.6: CG favours a low ratio, LU and SCALE high.
	if cmcpP("cg.B") >= cmcpP("lu.B") {
		t.Error("cg must use a lower p than lu")
	}
	if cmcpP("SCALE") < 0.8 {
		t.Error("SCALE uses a high p")
	}
	if cmcpP("") != 0.5 || cmcpP("x") != 0.5 {
		t.Error("fallback p")
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("fig99", quickOpts()); err == nil {
		t.Error("unknown experiment must fail")
	}
}

func TestFig6QuickShapes(t *testing.T) {
	rep, err := Fig6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "fig6" || len(rep.Tables) != 4 {
		t.Fatalf("report shape: %s %d tables", rep.ID, len(rep.Tables))
	}
	// Key observation of the paper: the majority of pages is mapped by
	// only a few cores. Check the private bin dominates for cg/SCALE.
	for _, tab := range rep.Tables {
		if !strings.Contains(tab.Title, "cg") && !strings.Contains(tab.Title, "SCALE") {
			continue
		}
		for _, row := range tab.Rows {
			v := parsePercent(t, row.Cells[0])
			if v < 50 {
				t.Errorf("%s %s: private pages %.1f%%, want >50%%", tab.Title, row.Label, v)
			}
		}
	}
}

func parsePercent(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent cell %q", s)
	}
	return v
}

func TestFig7Quick(t *testing.T) {
	rep, err := Fig7(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 4 {
		t.Fatalf("tables = %d", len(rep.Tables))
	}
	for _, tab := range rep.Tables {
		if len(tab.Rows) != 2 { // quick: 2 core counts
			t.Errorf("%s rows = %d", tab.Title, len(tab.Rows))
		}
		if len(tab.Columns) != 6 { // 5 lines + improvement column
			t.Errorf("%s cols = %v", tab.Title, tab.Columns)
		}
	}
}

func TestFig8Quick(t *testing.T) {
	rep, err := Fig8(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.Tables[0]
	// First row is 100% memory: all relative performances must be 1.0.
	for i, cell := range tab.Rows[0].Cells {
		if cell != "1.00" {
			t.Errorf("col %d at full memory = %s", i, cell)
		}
	}
	// Constrained rows must be <= 1.
	for _, row := range tab.Rows[1:] {
		for i, cell := range row.Cells {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v > 1.001 || v <= 0 {
				t.Errorf("%s col %d = %s", row.Label, i, cell)
			}
		}
	}
}

func TestFig9Quick(t *testing.T) {
	rep, err := Fig9(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 { // sweep + dynamic-p extension
		t.Fatalf("tables = %d", len(rep.Tables))
	}
	// p=0 must be within noise of FIFO (CMCP falls back to FIFO).
	row := rep.Tables[0].Rows[0]
	if row.Label != "p=0.000" {
		t.Fatalf("first row = %s", row.Label)
	}
	for i, cell := range row.Cells {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			t.Fatalf("cell %q", cell)
		}
		if v < -1 || v > 1 {
			t.Errorf("p=0 col %d improvement = %v%%, want ~0 (FIFO fallback)", i, v)
		}
	}
}

func TestFig10Quick(t *testing.T) {
	rep, err := Fig10(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 4 {
		t.Fatalf("tables = %d", len(rep.Tables))
	}
	for _, tab := range rep.Tables {
		if len(tab.Columns) != 3 { // 4k, 64k, 2M
			t.Errorf("%s columns = %v", tab.Title, tab.Columns)
		}
	}
}

func TestTable1Quick(t *testing.T) {
	rep, err := Table1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 4 {
		t.Fatalf("tables = %d", len(rep.Tables))
	}
	tab := rep.Tables[0]
	if len(tab.Rows) != 9 { // 3 policies x 3 attributes
		t.Errorf("rows = %d", len(tab.Rows))
	}
	// Every cell must be a non-negative number.
	for _, row := range tab.Rows {
		for _, cell := range row.Cells {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v < 0 {
				t.Errorf("%s: cell %q", row.Label, cell)
			}
		}
	}
}

func TestReportRendering(t *testing.T) {
	rep, err := Fig8(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	if !strings.Contains(s, "== fig8:") {
		t.Error("String missing header")
	}
	csv := rep.CSV()
	if !strings.Contains(csv, "label,") {
		t.Error("CSV missing header")
	}
}

func TestLRUShootdownExplosionQuick(t *testing.T) {
	// The paper's core claim at small scale: LRU's remote TLB
	// invalidations exceed FIFO's and CMCP has the fewest. Uses the
	// Table1 machinery at 8 cores.
	o := quickOpts()
	o.Quick = false // need full core axis? no — use custom tiny sweep
	rep, err := Table1(Options{Scale: 0.08, Quick: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.Tables[0] // bt
	get := func(label string) float64 {
		for _, row := range tab.Rows {
			if row.Label == label {
				v, _ := strconv.ParseFloat(row.Cells[len(row.Cells)-1], 64)
				return v
			}
		}
		t.Fatalf("row %q missing", label)
		return 0
	}
	fifoInv := get("FIFO remote TLB invalidations")
	lruInv := get("LRU remote TLB invalidations")
	cmcpInv := get("CMCP remote TLB invalidations")
	if lruInv <= fifoInv {
		t.Errorf("LRU invals %v must exceed FIFO %v", lruInv, fifoInv)
	}
	if cmcpInv >= fifoInv {
		t.Errorf("CMCP invals %v must be below FIFO %v", cmcpInv, fifoInv)
	}
}

func TestSensitivityQuick(t *testing.T) {
	rep, err := Sensitivity(Options{Scale: 0.04, Quick: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "sense" || len(rep.Tables) != 1 {
		t.Fatalf("report shape")
	}
	// 4 parameters x 3 quick multipliers.
	if got := len(rep.Tables[0].Rows); got != 12 {
		t.Errorf("rows = %d, want 12", got)
	}
	if _, err := ByID("sensitivity", Options{Scale: 0.02, Quick: true}); err != nil {
		t.Error(err)
	}
}

func TestRepeatsAveraging(t *testing.T) {
	o := Options{Scale: 0.03, Quick: true, Seed: 1, Repeats: 3}
	rep, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	// Replicated full-memory row still normalizes to exactly 1.00.
	for _, cell := range rep.Tables[0].Rows[0].Cells {
		if cell != "1.00" {
			t.Errorf("full-memory cell = %s", cell)
		}
	}
}
