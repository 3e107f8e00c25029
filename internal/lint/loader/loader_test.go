package loader

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module under a temp dir: files maps a
// slash-separated path relative to the module root to its contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module example.com/m\n\ngo 1.21\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const (
	srcA = `package a

import "strings"

// Upper is exported so package b has something to import.
func Upper(s string) string { return strings.ToUpper(s) }
`
	srcB = `package b

import "example.com/m/a"

var Shout = a.Upper("hi")
`
)

// TestLoadTypeChecksModulePackages loads a package the way vet-tool mode
// does: b's import of a resolves through a's export data.
func TestLoadTypeChecksModulePackages(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": srcA,
		"b/b.go": srcB,
	})
	exports, err := Exports(dir, "./b")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := ExportImporter(fset, exports, nil)
	p, err := ParseAndCheck(fset, "example.com/m/b", []string{filepath.Join(dir, "b", "b.go")}, imp)
	if err != nil {
		t.Fatal(err)
	}
	if p.Path != "example.com/m/b" || len(p.Files) != 1 || p.Types == nil || p.Info == nil {
		t.Fatalf("incomplete package %+v", p)
	}
	shout := p.Types.Scope().Lookup("Shout")
	if shout == nil || shout.Type().String() != "string" {
		t.Fatalf("b.Shout = %v, want a string variable", shout)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"missing import", "package c\n\nimport _ \"example.com/m/missing\"\n", "could not import example.com/m/missing"},
		{"type error", "package c\n\nvar x int = \"s\"\n", "type-checking example.com/m/c"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := writeModule(t, map[string]string{"c/c.go": c.src})
			exports, err := Exports(dir, "./c")
			if err != nil {
				t.Fatal(err)
			}
			fset := token.NewFileSet()
			imp := ExportImporter(fset, exports, nil)
			_, err = ParseAndCheck(fset, "example.com/m/c", []string{filepath.Join(dir, "c", "c.go")}, imp)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want it to mention %q", err, c.want)
			}
		})
	}
}

func TestGoListFailure(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "does-not-exist")
	if _, err := Exports(missing, "./..."); err == nil || !strings.Contains(err.Error(), "go list") {
		t.Fatalf("Exports in a missing dir: err = %v", err)
	}
}

func TestParseAndCheckParseError(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.go")
	if err := os.WriteFile(bad, []byte("package bad\n\nfunc {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseAndCheck(token.NewFileSet(), "bad", []string{bad}, nil); err == nil {
		t.Fatal("a syntax error type-checked")
	}
}

// TestExportImporter resolves through vet's import map first, and names
// the path it has no export data for.
func TestExportImporter(t *testing.T) {
	dir := writeModule(t, map[string]string{"a/a.go": srcA})
	exports, err := Exports(dir, "./a")
	if err != nil {
		t.Fatal(err)
	}
	if exports["strings"] == "" || exports["example.com/m/a"] == "" {
		t.Fatalf("export map lacks the pattern's dependency graph: %v", exports)
	}
	imp := ExportImporter(token.NewFileSet(), exports, map[string]string{"vendored/a": "example.com/m/a"})
	pkg, err := imp.Import("vendored/a")
	if err != nil {
		t.Fatal(err)
	}
	if obj := pkg.Scope().Lookup("Upper"); obj == nil {
		t.Fatalf("%s has no Upper", pkg.Path())
	} else if _, ok := obj.Type().(*types.Signature); !ok {
		t.Fatalf("Upper is %v, want a func", obj.Type())
	}
	if _, err := imp.Import("example.com/m/nowhere"); err == nil || !strings.Contains(err.Error(), "no export data") {
		t.Fatalf("unknown import: err = %v", err)
	}
}
