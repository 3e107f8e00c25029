package analyzers

import (
	"go/ast"
	"go/types"

	"libra/internal/lint/analysis"
)

// SpecContract checks the canonical-spec contract that the engine's
// result cache, the sweep warm-start reuse, and the /v2 job dedup all
// lean on. A type that declares MarshalCanonical is a spec type, and a
// spec type must be a complete contract:
//
//   - ParseSpec (package level), Clone, and Fingerprint must exist, so
//     every spec kind round-trips and cache-keys the same way;
//   - MarshalCanonical must funnel through encoding/json on the spec
//     type itself (json.Marshal of T or *T in its body) — that is what
//     guarantees every json-tagged field reaches the canonical bytes;
//   - fields tagged json:"-" are runtime-only hints and must not be read
//     while building the canonical form or the fingerprint: two specs
//     differing only in hints must digest equal. No spec type carries
//     such a field today (warm vectors reach the solver as arguments);
//     the rule guards any that is added.
var SpecContract = &analysis.Analyzer{
	Name:      "speccontract",
	Doc:       "spec types declaring MarshalCanonical must provide ParseSpec/Clone/Fingerprint, marshal the spec type itself, and keep json:\"-\" fields out of the canonical bytes",
	AppliesTo: libraryPackage,
	Run:       runSpecContract,
}

func runSpecContract(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			switch fd.Name.Name {
			case "MarshalCanonical":
				named := recvNamed(pass.TypesInfo, fd)
				if named == nil || !named.Obj().Exported() {
					continue
				}
				checkSpecMethods(pass, fd, named)
				checkCanonicalMarshal(pass, fd, named)
				checkNoRuntimeFields(pass, fd)
			case "Fingerprint":
				if recvNamed(pass.TypesInfo, fd) != nil {
					checkNoRuntimeFields(pass, fd)
				}
			}
		}
	}
	return nil
}

// recvNamed returns the receiver's named type (through one pointer), or
// nil for non-methods and non-named receivers.
func recvNamed(info *types.Info, fd *ast.FuncDecl) *types.Named {
	fn := declaredFunc(info, fd)
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// checkSpecMethods requires the rest of the contract once a type opts in
// with MarshalCanonical: Clone and Fingerprint methods, and a package
// level ParseSpec so the canonical bytes can be read back.
func checkSpecMethods(pass *analysis.Pass, fd *ast.FuncDecl, named *types.Named) {
	ms := types.NewMethodSet(types.NewPointer(named))
	for _, want := range []string{"Clone", "Fingerprint"} {
		if ms.Lookup(named.Obj().Pkg(), want) == nil {
			pass.Reportf(fd.Pos(),
				"%s declares MarshalCanonical but has no %s method: spec types must implement the full canonical contract",
				named.Obj().Name(), want)
		}
	}
	if obj := pass.Pkg.Scope().Lookup("ParseSpec"); obj == nil {
		pass.Reportf(fd.Pos(),
			"%s declares MarshalCanonical but package %s has no ParseSpec: canonical bytes must be parseable back into the spec type",
			named.Obj().Name(), pass.Pkg.Name())
	} else if _, ok := obj.(*types.Func); !ok {
		pass.Reportf(fd.Pos(),
			"ParseSpec in package %s is not a function", pass.Pkg.Name())
	}
}

// checkCanonicalMarshal requires MarshalCanonical's body to pass a value
// of the spec type (T or *T) to json.Marshal. Marshaling the type itself
// is what makes "every json-tagged field is serialized" hold by
// construction; hand-rolled byte building would silently drop fields
// added later.
func checkCanonicalMarshal(pass *analysis.Pass, fd *ast.FuncDecl, named *types.Named) {
	if fd.Body == nil {
		return
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if !isPkgFunc(calleeFunc(pass.TypesInfo, call), "encoding/json", "Marshal") {
			return true
		}
		tv, ok := pass.TypesInfo.Types[call.Args[0]]
		if !ok {
			return true
		}
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj() == named.Obj() {
			found = true
		}
		return true
	})
	if !found {
		pass.Reportf(fd.Pos(),
			"MarshalCanonical on %s never passes a %s value to json.Marshal: canonical bytes must come from the tagged spec type so new fields cannot be dropped",
			named.Obj().Name(), named.Obj().Name())
	}
}

// checkNoRuntimeFields flags reads of json:"-" struct fields inside the
// canonicalization path. Those fields are runtime-only hints by
// declaration; letting one influence MarshalCanonical or Fingerprint
// would split the cache key on state the canonical form says it ignores.
func checkNoRuntimeFields(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, selOK := pass.TypesInfo.Selections[sel]
		if !selOK || s.Kind() != types.FieldVal {
			return true
		}
		if tag, ok := fieldJSONTag(s); ok && tag == "-" {
			pass.Reportf(sel.Pos(),
				"%s is tagged json:\"-\" (runtime-only) but is read inside %s: hints must not affect the canonical bytes or fingerprint",
				sel.Sel.Name, fd.Name.Name)
		}
		return true
	})
}

// fieldJSONTag resolves a field selection to the json tag on the final
// field in its (possibly embedded) path.
func fieldJSONTag(sel *types.Selection) (string, bool) {
	t := sel.Recv()
	tag, ok := "", false
	for _, idx := range sel.Index() {
		if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
			t = p.Elem()
		}
		s, isStruct := t.Underlying().(*types.Struct)
		if !isStruct || idx >= s.NumFields() {
			return "", false
		}
		tag, ok = jsonTagName(s, idx), true
		t = s.Field(idx).Type()
	}
	return tag, ok
}
