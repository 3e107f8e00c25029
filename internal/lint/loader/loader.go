// Package loader type-checks packages for cmd/libra-lint using only the
// standard library: go/importer's gc importer reads the export data the
// go command builds. In vet-tool mode cmd/go hands the tool that export
// map per package; the analysistest fixture harness builds it once with
// `go list -export` (Exports). This replaces x/tools' go/packages, which
// the repository deliberately does not depend on (see go.mod).
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"

	"libra/internal/lint/analysis"
)

// Package is one parsed, type-checked target package.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Exports builds export data for the patterns' full dependency graphs
// under dir and returns the import-path → export-file map.
func Exports(dir string, patterns ...string) (map[string]string, error) {
	args := append([]string{"-e", "-export", "-deps", "-json=ImportPath,Export"}, patterns...)
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.String())
	}
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", args, err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// ExportImporter returns a types.Importer resolving import paths through
// an export map, with an optional rename map (vet's ImportMap) applied
// first.
func ExportImporter(fset *token.FileSet, exports map[string]string, importMap map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if canonical, ok := importMap[path]; ok {
			path = canonical
		}
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// ParseAndCheck parses the named files and type-checks them as one
// package. Analyzers run over non-test sources only, so test-only idioms
// (context.Background in tests, fake clocks) never trip repository checks.
func ParseAndCheck(fset *token.FileSet, path string, files []string, imp types.Importer) (*Package, error) {
	var asts []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Files: asts, Types: tpkg, Info: info}, nil
}
