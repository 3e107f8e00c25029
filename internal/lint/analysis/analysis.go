// Package analysis is a minimal, dependency-free stand-in for
// golang.org/x/tools/go/analysis: the Analyzer/Pass/Diagnostic vocabulary
// cmd/libra-lint's checkers are written against.
//
// Why not the real thing: the repository's go.mod is deliberately
// dependency-free (see the note there), so the lint suite runs on the
// standard library alone — go/ast + go/types for analysis,
// export data from cmd/go for imports (internal/lint/loader). The API mirrors
// x/tools closely enough that migrating an analyzer to the upstream
// framework is a mechanical import swap: Run takes a *Pass carrying the
// same Fset/Files/Pkg/TypesInfo fields and reports through the same
// Reportf call.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //libra:allow suppression directives.
	Name string
	// Doc describes the check in one paragraph.
	Doc string
	// AppliesTo optionally narrows which packages the driver runs the
	// analyzer on (nil means every package). Fixture runs
	// (internal/lint/analysistest) bypass it so the checks themselves
	// stay testable outside their production scope.
	AppliesTo func(pkgPath string) bool
	// Run performs the check and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report receives each finding; Run owns collection and
	// suppression, its caller the rendering.
	Report func(Diagnostic)
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// NewInfo builds a types.Info with every map an analyzer may consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// AllowDirective is the inline suppression spelling: a comment of the form
//
//	//libra:allow <analyzer> [rationale...]
//
// on a finding's line, or on the line directly above it, suppresses that
// analyzer's findings there. The rationale is free text for the reviewer;
// the driver only matches the analyzer name (or "all").
const AllowDirective = "//libra:allow"

// allowKey locates one suppression: an analyzer name at a file line.
type allowKey struct {
	file string
	line int
	name string
}

// Run applies each analyzer to one type-checked package and returns the
// findings that no //libra:allow directive covers. It is the only pass
// runner: the vet tool (cmd/libra-lint) calls it with the analyzers whose
// AppliesTo admits the package, and the fixture harness
// (internal/lint/analysistest) with the one analyzer under test.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	allows := scanAllows(fset, files)
	var diags []Diagnostic
	report := func(d Diagnostic) {
		p := fset.Position(d.Pos)
		for _, line := range []int{p.Line, p.Line - 1} {
			if allows[allowKey{p.Filename, line, d.Analyzer}] || allows[allowKey{p.Filename, line, "all"}] {
				return
			}
		}
		diags = append(diags, d)
	}
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, Report: report}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path(), err)
		}
	}
	return diags, nil
}

// scanAllows collects the files' allow directives.
func scanAllows(fset *token.FileSet, files []*ast.File) map[allowKey]bool {
	allows := map[allowKey]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, AllowDirective)
				if !ok || (text != "" && text[0] != ' ' && text[0] != '\t') {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				allows[allowKey{pos.Filename, pos.Line, fields[0]}] = true
			}
		}
	}
	return allows
}
