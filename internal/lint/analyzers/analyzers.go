// Package analyzers holds LIBRA's project-specific static checks: the
// conventions the codebase relies on for correctness (canonical spec
// contracts, the single error-envelope path, context propagation,
// allocation-free hot loops, bounded-cardinality telemetry) enforced
// mechanically instead of by reviewer memory. cmd/libra-lint
// runs them all; each has an analysistest fixture under testdata/src.
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"libra/internal/lint/analysis"
)

// All lists every analyzer the libra-lint multichecker runs, in the
// order diagnostics group by.
var All = []*analysis.Analyzer{
	SpecContract,
	ErrCode,
	CtxFlow,
	HotPath,
	MetricName,
	Nilness,
	Shadow,
}

// ---- shared helpers ----

// unparen strips parentheses (ast.Unparen needs go1.22; go.mod floors at
// go1.21).
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for builtins, conversions, and
// calls through function-typed variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the named function of the named package
// (e.g. "context", "Background").
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// enclosingFunc returns the innermost FuncDecl containing pos, using the
// file's top-level declarations (function literals attribute to their
// enclosing declaration).
func enclosingFunc(file *ast.File, pos ast.Node) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos.Pos() && pos.Pos() <= fd.End() {
			return fd
		}
	}
	return nil
}

// declaredFunc returns the types object for a function declaration.
func declaredFunc(info *types.Info, fd *ast.FuncDecl) *types.Func {
	fn, _ := info.Defs[fd.Name].(*types.Func)
	return fn
}

// hasContextParam reports whether the function type syntactically takes a
// context.Context parameter, resolved through the type info.
func hasContextParam(info *types.Info, ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// libraryPackage is the default production scope: every module package
// except the binaries (cmd/...) and example programs, which own their
// process roots.
func libraryPackage(pkgPath string) bool {
	if pkgPath == "libra" || pkgPath == "libra/client" {
		return true
	}
	return strings.HasPrefix(pkgPath, "libra/internal/")
}

// structTag returns the json tag name for field i of s ("-" for opted-out
// runtime-only fields, "" for untagged fields).
func jsonTagName(s *types.Struct, i int) string {
	tag := s.Tag(i)
	const key = `json:"`
	idx := strings.Index(tag, key)
	if idx < 0 {
		return ""
	}
	rest := tag[idx+len(key):]
	end := strings.IndexByte(rest, '"')
	if end < 0 {
		return ""
	}
	name, _, _ := strings.Cut(rest[:end], ",")
	return name
}
