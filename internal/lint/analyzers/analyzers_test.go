package analyzers_test

import (
	"testing"

	"libra/internal/lint/analysistest"
	"libra/internal/lint/analyzers"
)

func TestSpecContract(t *testing.T) {
	analysistest.Run(t, analyzers.SpecContract, "speccontract")
}

func TestErrCode(t *testing.T) {
	analysistest.Run(t, analyzers.ErrCode, "errcode")
}

func TestCtxFlow(t *testing.T) {
	// The fixture's WorkerRoot stands in for a deliberate spawn point:
	// allowlist it by FullName for the duration of the test, exactly as a
	// real worker root would be allowlisted in CtxFlowAllowed.
	analyzers.CtxFlowAllowed["ctxflow.WorkerRoot"] = "fixture worker root"
	defer delete(analyzers.CtxFlowAllowed, "ctxflow.WorkerRoot")
	analysistest.Run(t, analyzers.CtxFlow, "ctxflow")
}

func TestHotPath(t *testing.T) {
	analysistest.Run(t, analyzers.HotPath, "hotpath")
}

func TestMetricName(t *testing.T) {
	analysistest.Run(t, analyzers.MetricName, "metricname")
}

func TestMetricNameInCatalog(t *testing.T) {
	analysistest.RunAs(t, analyzers.MetricName, "metricname_catalog", analyzers.TelemetryPackage)
}

func TestNilness(t *testing.T) {
	analysistest.Run(t, analyzers.Nilness, "nilness")
}

func TestShadow(t *testing.T) {
	analysistest.Run(t, analyzers.Shadow, "shadow")
}
