package loader

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
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
	// srcATest must stay invisible: analyzers see non-test sources only.
	srcATest = `package a

import "testing"

func TestUpper(t *testing.T) {}
`
)

func TestLoadTypeChecksModulePackages(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go":      srcA,
		"a/a_test.go": srcATest,
		"b/b.go":      srcB,
	})
	fset := token.NewFileSet()
	pkgs, err := Load(fset, dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
		if len(p.Files) != 1 {
			t.Errorf("%s: %d files, want 1 (non-test sources only)", p.Path, len(p.Files))
		}
		if p.Dir == "" || p.Types == nil || p.Info == nil {
			t.Errorf("%s: incomplete package %+v", p.Path, p)
		}
	}
	sort.Strings(paths)
	if strings.Join(paths, " ") != "example.com/m/a example.com/m/b" {
		t.Fatalf("loaded %v", paths)
	}
	// b's import of a resolved through a's export data.
	for _, p := range pkgs {
		if p.Path != "example.com/m/b" {
			continue
		}
		shout := p.Types.Scope().Lookup("Shout")
		if shout == nil || shout.Type().String() != "string" {
			t.Fatalf("b.Shout = %v, want a string variable", shout)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  string
	}{
		{"mixed package names", map[string]string{"c/c.go": "package c\n", "c/d.go": "package d\n"}, "loading example.com/m/c"},
		{"missing import", map[string]string{"c/c.go": "package c\n\nimport _ \"example.com/m/missing\"\n"}, "could not import example.com/m/missing"},
		{"type error", map[string]string{"c/c.go": "package c\n\nvar x int = \"s\"\n"}, "type-checking example.com/m/c"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := writeModule(t, c.files)
			_, err := Load(token.NewFileSet(), dir, "./...")
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
	if _, err := Load(token.NewFileSet(), missing, "./..."); err == nil {
		t.Fatal("Load in a missing dir succeeded")
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
