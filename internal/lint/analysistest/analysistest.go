// Package analysistest runs one analyzer over a fixture package and
// checks its diagnostics against inline `// want "regex"` comments — the
// same contract as golang.org/x/tools/go/analysis/analysistest, rebuilt
// on the stdlib-only loader so the fixtures work offline (see go.mod).
//
// Fixtures live under testdata/src/<pkg>/ relative to the calling test's
// directory; `go list ./...` never descends into testdata, so fixture
// packages are invisible to normal builds and to libra-lint's own
// repository runs. Each line carrying one or more want comments must
// produce a matching diagnostic for each, and every diagnostic must be
// claimed by a want on its line. The analyzer runs through analysis.Run,
// the same runner the vet tool uses, so inline //libra:allow directives
// are honored exactly as in a real run and suppression is testable too.
//
// Fixture imports must stay within the repository's dependency closure
// (any libra package, and the stdlib packages the repository already
// uses): the export data they type-check against comes from one shared
// `go list -export -deps ./...` over the module.
package analysistest

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"libra/internal/lint/analysis"
	"libra/internal/lint/loader"
)

var (
	exportsOnce sync.Once
	exports     map[string]string
	exportsErr  error
)

// moduleExports builds (once per test process) the export map for the
// whole module's dependency graph, starting the `go list` from the
// enclosing module root.
func moduleExports(t *testing.T) map[string]string {
	t.Helper()
	exportsOnce.Do(func() {
		root, err := os.Getwd()
		if err != nil {
			exportsErr = err
			return
		}
		for {
			if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
				break
			}
			parent := filepath.Dir(root)
			if parent == root {
				exportsErr = os.ErrNotExist
				return
			}
			root = parent
		}
		exports, exportsErr = loader.Exports(root, "./...")
	})
	if exportsErr != nil {
		t.Fatalf("analysistest: building module export data: %v", exportsErr)
	}
	return exports
}

// Run checks the analyzer against testdata/src/<pkg>, type-checked under
// the import path <pkg>.
func Run(t *testing.T, a *analysis.Analyzer, pkg string) {
	t.Helper()
	RunAs(t, a, pkg, pkg)
}

// RunAs is Run with an explicit import path, for analyzers whose checks
// branch on the package under analysis (e.g. metricname's in-catalog
// rules only apply inside libra/internal/telemetry).
func RunAs(t *testing.T, a *analysis.Analyzer, pkg, importPath string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatalf("analysistest: no fixture files in %s", dir)
	}
	fset := token.NewFileSet()
	imp := loader.ExportImporter(fset, moduleExports(t), nil)
	fpkg, err := loader.ParseAndCheck(fset, importPath, files, imp)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	got, err := analysis.Run(fset, fpkg.Files, fpkg.Types, fpkg.Info, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	compare(t, fset, fpkg, got)
}

type lineKey struct {
	file string
	line int
}

var wantRE = regexp.MustCompile(`//\s*want\s+(".*")\s*$`)

// compare matches diagnostics against want comments line by line.
func compare(t *testing.T, fset *token.FileSet, pkg *loader.Package, got []analysis.Diagnostic) {
	t.Helper()
	wants := map[lineKey][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range splitQuoted(m[1]) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want expectation %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					k := lineKey{pos.Filename, pos.Line}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	matched := map[lineKey][]bool{}
	for _, d := range got {
		pos := fset.Position(d.Pos)
		k := lineKey{pos.Filename, pos.Line}
		res := wants[k]
		if matched[k] == nil {
			matched[k] = make([]bool, len(res))
		}
		claimed := false
		for i, re := range res {
			if !matched[k][i] && re.MatchString(d.Message) {
				matched[k][i] = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	var keys []lineKey
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for i, re := range wants[k] {
			if matched[k] == nil || !matched[k][i] {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, re)
			}
		}
	}
}

// splitQuoted splits `"a" "b"` into its quoted segments (a line may
// declare several expectations).
func splitQuoted(s string) []string {
	var out []string
	for {
		start := strings.IndexByte(s, '"')
		if start < 0 {
			return out
		}
		rest := s[start+1:]
		end := 0
		for end < len(rest) {
			if rest[end] == '\\' {
				end += 2
				continue
			}
			if rest[end] == '"' {
				break
			}
			end++
		}
		if end >= len(rest) {
			return out
		}
		out = append(out, `"`+rest[:end]+`"`)
		s = rest[end+1:]
	}
}
