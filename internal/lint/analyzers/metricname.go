package analyzers

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"libra/internal/lint/analysis"
)

// TelemetryPackage is the one package allowed to register series; its
// catalog.go is the single place the full series inventory can be read.
const TelemetryPackage = "libra/internal/telemetry"

// MetricNamePrefix is the namespace every series carries so LIBRA's
// metrics never collide with a co-scraped process.
const MetricNamePrefix = "libra_"

var metricCtors = map[string]bool{
	"NewCounter":      true,
	"NewCounterVec":   true,
	"NewGauge":        true,
	"NewGaugeVec":     true,
	"NewGaugeFunc":    true,
	"NewCounterFunc":  true,
	"NewHistogram":    true,
	"NewHistogramVec": true,
}

// requestDerivedSelectors are http.Request members whose values are
// caller-controlled and effectively unbounded. Using one as a label
// value mints a new series per distinct request — the classic telemetry
// cardinality leak. Bounded members (Method, ContentLength comparisons,
// the matched route pattern) are fine and not listed.
var requestDerivedSelectors = map[string]bool{
	"URL":        true,
	"Header":     true,
	"RemoteAddr": true,
	"RequestURI": true,
	"Host":       true,
	"UserAgent":  true,
	"Referer":    true,
	"Cookie":     true,
}

// MetricName keeps the telemetry series inventory declarative and
// bounded: series are registered only in the telemetry package's
// catalog, every name is a compile-time constant with the libra_ prefix,
// and label values on vec instruments never come from request-derived
// (unbounded) http.Request members.
var MetricName = &analysis.Analyzer{
	Name:      "metricname",
	Doc:       "telemetry series must be registered in the catalog with constant libra_-prefixed names; vec label values must not be request-derived",
	AppliesTo: libraryPackage,
	Run:       runMetricName,
}

func runMetricName(pass *analysis.Pass) error {
	inTelemetry := pass.Pkg.Path() == TelemetryPackage
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != TelemetryPackage {
				return true
			}
			switch {
			case metricCtors[fn.Name()]:
				if !inTelemetry {
					pass.Reportf(call.Pos(),
						"telemetry series registered outside the catalog: declare it in internal/telemetry/catalog.go so the inventory stays in one reviewable place")
				}
				checkSeriesName(pass, call)
			case fn.Name() == "With":
				checkLabelValues(pass, call)
			}
			return true
		})
	}
	return nil
}

// checkSeriesName requires the name argument (always first) to be a
// compile-time constant starting with libra_. Dynamic names defeat both
// the namespace guarantee and catalog review.
func checkSeriesName(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return
	}
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(call.Args[0].Pos(),
			"telemetry series name is not a compile-time constant: dynamic names make the series inventory unreviewable")
		return
	}
	if name := constant.StringVal(tv.Value); !strings.HasPrefix(name, MetricNamePrefix) {
		pass.Reportf(call.Args[0].Pos(),
			"telemetry series %q lacks the %q namespace prefix", name, MetricNamePrefix)
	}
}

// checkLabelValues walks each label value passed to a vec's With and
// flags unbounded request-derived inputs.
func checkLabelValues(pass *analysis.Pass, call *ast.CallExpr) {
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !requestDerivedSelectors[sel.Sel.Name] {
				return true
			}
			if !isHTTPRequest(pass.TypesInfo, sel.X) {
				return true
			}
			pass.Reportf(sel.Pos(),
				"request-derived label value (r.%s): unbounded cardinality mints a series per request; map to a bounded set (e.g. the matched route) first",
				sel.Sel.Name)
			return false
		})
	}
}

func isHTTPRequest(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}
