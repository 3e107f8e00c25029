package analyzers

import (
	"go/ast"

	"libra/internal/lint/analysis"
)

// ClockInjectPackages lists the packages that declare an injectable clock
// (a `now func() time.Time` field defaulting to time.Now). Inside them,
// calling time.Now()/time.Since() directly would bypass the injected
// clock and break the fake-clock tests of the jobs retention sweeps.
var ClockInjectPackages = map[string]bool{
	"libra/internal/jobs": true,
}

// ClockInject flags direct wall-clock reads in packages with an
// injectable clock. Referencing time.Now as a value (`now: time.Now`, the
// injection default) stays legal — only calls are flagged, because only
// calls read the clock the tests need to fake.
var ClockInject = &analysis.Analyzer{
	Name:      "clockinject",
	Doc:       "flag time.Now()/time.Since() calls in packages that declare an injectable clock",
	AppliesTo: func(pkgPath string) bool { return ClockInjectPackages[pkgPath] },
	Run:       runClockInject,
}

func runClockInject(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			for _, name := range []string{"Now", "Since", "Until"} {
				if isPkgFunc(fn, "time", name) {
					pass.Reportf(call.Pos(),
						"time.%s() in a package with an injectable clock: use the injected now() so fake-clock tests stay honest",
						name)
				}
			}
			return true
		})
	}
	return nil
}
