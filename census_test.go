package cmcp_test

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"cmcp"
)

// censusRow matches one row of the DESIGN.md config census:
// | `Struct.Field` | setters | verdict |
var censusRow = regexp.MustCompile("^\\| `(\\w+)\\.(\\w+)` \\|[^|]*\\| ([^|]*) \\|$")

// TestConfigCensus holds DESIGN.md §16 to the config structs, in both
// directions: every exported field has a census row, and every row
// names a live field unless its verdict is "deleted here".
func TestConfigCensus(t *testing.T) {
	structs := map[string]reflect.Type{
		"Config":     reflect.TypeOf(cmcp.Config{}),
		"PolicySpec": reflect.TypeOf(cmcp.PolicySpec{}),
		"Spec":       reflect.TypeOf(cmcp.Workload{}),
		"TenantSpec": reflect.TypeOf(cmcp.TenantSpec{}),
	}
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{} // "Struct.Field" -> deleted
	for _, line := range strings.Split(string(data), "\n") {
		m := censusRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1] + "." + m[2]
		if _, ok := structs[m[1]]; !ok {
			t.Errorf("census row %s names no censused struct", name)
			continue
		}
		if _, dup := rows[name]; dup {
			t.Errorf("census has two rows for %s", name)
		}
		rows[name] = strings.HasPrefix(m[3], "deleted here")
	}
	for sname, typ := range structs {
		live := map[string]bool{}
		for _, f := range reflect.VisibleFields(typ) {
			if f.IsExported() && len(f.Index) == 1 {
				live[f.Name] = true
				name := sname + "." + f.Name
				if deleted, ok := rows[name]; !ok {
					t.Errorf("%s has no census row in DESIGN.md", name)
				} else if deleted {
					t.Errorf("%s still exists but its census row says deleted", name)
				}
			}
		}
		for name, deleted := range rows {
			s, field, _ := strings.Cut(name, ".")
			if s == sname && !live[field] && !deleted {
				t.Errorf("census row %s names a field %s does not have", name, sname)
			}
		}
	}
}
