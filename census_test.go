package cmcp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"cmcp"
	"cmcp/internal/workload"
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
		"Spec":       reflect.TypeOf(workload.Spec{}),
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

// facadeRef matches one reference to a facade name.
var facadeRef = regexp.MustCompile(`\bcmcp\.(\w+)`)

// TestFacadeReaders holds cmcp.go to its readers: every entry that
// `go doc -short` lists (a function, a type, or a whole const or var
// block) must be named as cmcp.<Name> in README.md or in a non-test Go
// file under cmd/, examples/ or perfbench/. A block is read if any
// member is. An entry nothing reads is surface to delete, not keep.
func TestFacadeReaders(t *testing.T) {
	readers := map[string]bool{}
	note := func(data []byte) {
		for _, m := range facadeRef.FindAllSubmatch(data, -1) {
			readers[string(m[1])] = true
		}
	}
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	note(data)
	for _, dir := range []string{"cmd", "examples", "perfbench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			data, err := os.ReadFile(path)
			note(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	file, err := parser.ParseFile(token.NewFileSet(), "cmcp.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var entries [][]string // each entry's exported names
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			entries = append(entries, []string{d.Name.Name})
		case *ast.GenDecl:
			var block []string
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					entries = append(entries, []string{s.Name.Name})
				case *ast.ValueSpec:
					for _, n := range s.Names {
						block = append(block, n.Name)
					}
				}
			}
			if len(block) > 0 {
				entries = append(entries, block)
			}
		}
	}
	for _, names := range entries {
		read := false
		for _, n := range names {
			read = read || readers[n]
		}
		if !read && ast.IsExported(names[0]) {
			t.Errorf("cmcp.go: %s has no reader in README.md, cmd/, examples/ or perfbench/", strings.Join(names, ", "))
		}
	}
}
