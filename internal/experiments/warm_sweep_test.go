package experiments

import (
	"context"
	"math"
	"testing"

	"libra/internal/core"
	"libra/internal/timemodel"
	"libra/internal/topology"
	"libra/internal/workload"
)

// The warm-started design sweep must agree point-for-point with
// independent cold solves of the same grid, within solver tolerance. The
// pair under test is GPT-3 on 4D-4K — the Fig. 13 anomaly pair and the
// most multistart-hungry sweep in the suite, so it is where a warm chain
// latching onto a stale basin would show first.
func TestDesignSweepWarmMatchesColdPointwise(t *testing.T) {
	net := topology.FourD4K()
	w, err := workload.GPT3(net.NPUs())
	if err != nil {
		t.Fatal(err)
	}
	budgets := Budgets(true)

	type point struct{ eq, perf, ppc core.Result }
	warm := map[float64]point{}
	err = designSweep(context.Background(), net, w, budgets, func(budget float64, eq, perf, ppc core.Result) {
		warm[budget] = point{eq, perf, ppc}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Agreement tolerance: warm and cold are both multistart local optima.
	// The warm cutoff guarantees the warm basin matched the strongest cold
	// seed within the solver's 1e-6 cutoff margin, but the skipped
	// remainder of the multistart can wobble either answer by a few
	// percent on the big budget jumps of the quick grid — neither side
	// dominates. Divergence beyond this band means the chain latched onto
	// a genuinely wrong basin.
	const tol = 5e-2
	ctx := context.Background()
	for _, budget := range budgets {
		p := core.NewProblem(net, budget, w)
		p.OptPolicy = timemodel.IdealFullDims
		o, err := p.NewOptimizer()
		if err != nil {
			t.Fatal(err)
		}
		p.Objective = core.PerfOpt
		perf, err := o.SolveBudget(ctx, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Objective = core.PerfPerCostOpt
		ppc, err := o.SolveBudget(ctx, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		wp := warm[budget]
		if rel := math.Abs(wp.perf.WeightedTime-perf.WeightedTime) / perf.WeightedTime; rel > tol {
			t.Errorf("budget %v: warm perf %v vs cold %v (rel %.2e)",
				budget, wp.perf.WeightedTime, perf.WeightedTime, rel)
		}
		if rel := math.Abs(wp.ppc.PerfPerCost()-ppc.PerfPerCost()) / ppc.PerfPerCost(); rel > tol {
			t.Errorf("budget %v: warm ppc %v vs cold %v (rel %.2e)",
				budget, wp.ppc.PerfPerCost(), ppc.PerfPerCost(), rel)
		}
		// The sweep's answer must still beat the workload-agnostic
		// baseline — a warm chain is never allowed to cost the headline
		// result.
		if wp.ppc.PerfPerCost() < wp.eq.PerfPerCost() {
			t.Errorf("budget %v: warm ppc %v lost to EqualBW %v",
				budget, wp.ppc.PerfPerCost(), wp.eq.PerfPerCost())
		}
	}

	// Monotonicity survives warm-chaining: more budget never costs time
	// under either objective's reported WeightedTime ordering for perf.
	for i := 1; i < len(budgets); i++ {
		lo, hi := warm[budgets[i-1]], warm[budgets[i]]
		if hi.perf.WeightedTime > lo.perf.WeightedTime*(1+1e-9) {
			t.Errorf("perf time rose with budget: %v @ %v vs %v @ %v",
				hi.perf.WeightedTime, budgets[i], lo.perf.WeightedTime, budgets[i-1])
		}
	}
}
