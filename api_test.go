package orion

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files from the current build")

// TestAPISurface pins the package's exported functions, methods and
// types (with struct fields) to testdata/api.golden, so every change to
// the public API shows up in review as a diff of that file. After an
// intended change, run `go test -run TestAPISurface -update .`.
func TestAPISurface(t *testing.T) {
	got := strings.Join(exportedAPI(t), "\n") + "\n"
	const golden = "testdata/api.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exported API differs from %s (run with -update after an intended change)\ngot:\n%s", golden, got)
	}
}

// exportedAPI lists, sorted, one line per exported declaration of the
// package's non-test files.
func exportedAPI(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	render := func(n any) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	var api []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				recv := ""
				if d.Recv != nil {
					typ := d.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if !ast.IsExported(render(typ)) {
						continue
					}
					recv = "(" + render(d.Recv.List[0].Type) + ") "
				}
				api = append(api, "func "+recv+d.Name.Name+strings.TrimPrefix(render(d.Type), "func"))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					api = append(api, typeLines(ts, render)...)
				}
			}
		}
	}
	slices.Sort(api)
	return api
}

// typeLines renders an exported type: its kind, or its target for an
// alias, and one line per exported field of a struct.
func typeLines(ts *ast.TypeSpec, render func(any) string) []string {
	name := ts.Name.Name
	if ts.Assign.IsValid() {
		return []string{"type " + name + " = " + render(ts.Type)}
	}
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		if _, isIface := ts.Type.(*ast.InterfaceType); isIface {
			return []string{"type " + name + " interface"}
		}
		return []string{"type " + name + " " + render(ts.Type)}
	}
	lines := []string{"type " + name + " struct"}
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.IsExported() {
				lines = append(lines, "field "+name+"."+n.Name+" "+render(f.Type))
			}
		}
	}
	return lines
}
