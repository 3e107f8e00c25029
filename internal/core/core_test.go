package core

import (
	"math"
	"testing"

	"libra/internal/cost"
	"libra/internal/timemodel"
	"libra/internal/topology"
	"libra/internal/workload"
)

func approx(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func mustMSFT(t *testing.T, npus int) *workload.Workload {
	t.Helper()
	w, err := workload.MSFT1T(npus)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestEqualBWBaseline(t *testing.T) {
	net := topology.ThreeD4K()
	p := NewProblem(net, 300, mustMSFT(t, 4096))
	res, err := p.EqualBW()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.BW {
		if !approx(b, 100, 1e-12) {
			t.Errorf("EqualBW = %v, want 100 per dim", res.BW)
		}
	}
	if res.WeightedTime <= 0 || res.Cost <= 0 {
		t.Errorf("result = %+v", res)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("utilization = %v", res.Utilization)
	}
}

func TestPerfOptBeatsEqualBW(t *testing.T) {
	for _, netName := range []string{"3D-4K", "4D-4K"} {
		net, err := topology.Preset(netName)
		if err != nil {
			t.Fatal(err)
		}
		p := NewProblem(net, 300, mustMSFT(t, 4096))
		eq, err := p.EqualBW()
		if err != nil {
			t.Fatal(err)
		}
		opt, err := p.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		if opt.WeightedTime > eq.WeightedTime*(1+1e-6) {
			t.Errorf("%s: PerfOpt %v slower than EqualBW %v", netName, opt.WeightedTime, eq.WeightedTime)
		}
		speedup := eq.WeightedTime / opt.WeightedTime
		if speedup < 1.05 {
			t.Errorf("%s: PerfOpt speedup %v suspiciously small for MSFT-1T", netName, speedup)
		}
		// PerfOpt pins the full budget.
		if !approx(opt.BW.Total(), 300, 1e-3) {
			t.Errorf("%s: PerfOpt spent %v GB/s of 300", netName, opt.BW.Total())
		}
	}
}

func TestPerfPerCostOptBeatsOnPerfPerCost(t *testing.T) {
	net := topology.FourD4K()
	w := mustMSFT(t, 4096)
	perf := NewProblem(net, 500, w)
	perf.Objective = PerfOpt
	ppc := NewProblem(net, 500, w)
	ppc.Objective = PerfPerCostOpt

	eq, err := perf.EqualBW()
	if err != nil {
		t.Fatal(err)
	}
	rPerf, err := perf.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	rPPC, err := ppc.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if !(rPPC.PerfPerCost() >= rPerf.PerfPerCost()*(1-1e-6)) {
		t.Errorf("PerfPerCostOpt ppc %v < PerfOpt ppc %v", rPPC.PerfPerCost(), rPerf.PerfPerCost())
	}
	if !(rPPC.PerfPerCost() > eq.PerfPerCost()) {
		t.Errorf("PerfPerCostOpt ppc %v should beat EqualBW %v", rPPC.PerfPerCost(), eq.PerfPerCost())
	}
	// PerfOpt time is the fastest of the three.
	if rPerf.WeightedTime > rPPC.WeightedTime*(1+1e-9) || rPerf.WeightedTime > eq.WeightedTime {
		t.Errorf("PerfOpt should be fastest: perf=%v ppc=%v eq=%v",
			rPerf.WeightedTime, rPPC.WeightedTime, eq.WeightedTime)
	}
}

// PerfOpt's allocation should shift bandwidth toward the traffic-heavy
// inner dimensions relative to EqualBW (the Fig. 9 lesson).
func TestPerfOptFavorsInnerDims(t *testing.T) {
	net := topology.ThreeD4K()
	p := NewProblem(net, 300, mustMSFT(t, 4096))
	res, err := p.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if !(res.BW[0] > 100) {
		t.Errorf("PerfOpt dim1 BW = %v, want > EqualBW's 100 (inner dims carry more traffic)", res.BW[0])
	}
	if !(res.BW[0] > res.BW[1]) {
		t.Errorf("BW should decay outward for MSFT-1T on 3D-4K: %v", res.BW)
	}
}

func TestExtraConstraintsRespected(t *testing.T) {
	net := topology.ThreeD4K()
	p := NewProblem(net, 300, mustMSFT(t, 4096))
	p.Constraints = []ConstraintSpec{DimCap(1, 120)} // cap the inner dim
	res, err := p.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if res.BW[0] > 120+1e-6 {
		t.Errorf("dim1 BW %v violates the 120 GB/s cap", res.BW[0])
	}
}

func TestGroupOptimizationNearOptimalForAll(t *testing.T) {
	net := topology.FourD4K()
	msft := mustMSFT(t, 4096)
	tnlg, err := workload.TuringNLG(4096)
	if err != nil {
		t.Fatal(err)
	}

	// Individually optimized networks.
	single := map[string]Result{}
	for _, w := range []*workload.Workload{msft, tnlg} {
		p := NewProblem(net, 1000, w)
		r, err := p.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		single[w.Name] = r
	}

	// Group-optimized network.
	group := NewProblem(net, 1000, msft, tnlg)
	rg, err := group.Optimize()
	if err != nil {
		t.Fatal(err)
	}

	// Evaluate each workload on the group network: slowdown vs its own
	// optimum must be modest (paper: avg 1.01×, max 1.04× for LLM groups).
	for i, w := range []*workload.Workload{msft, tnlg} {
		own := single[w.Name].Times[0]
		onGroup := rg.Times[i]
		slowdown := onGroup / own
		if slowdown > 1.6 {
			t.Errorf("%s slowdown on group-opt network = %v, want near-optimal", w.Name, slowdown)
		}
		// Allow small solver tolerance: the solo optimum may itself be a
		// hair off the true optimum, so "slowdown" can dip slightly
		// below 1; a dip beyond 2% would mean the solo solve is broken.
		if slowdown < 0.98 {
			t.Errorf("%s much faster on group network than its own optimum: %v", w.Name, slowdown)
		}
	}
}

func TestWeightsSkewGroupOptimization(t *testing.T) {
	net := topology.FourD4K()
	msft := mustMSFT(t, 4096)
	rn, err := workload.ResNet50(4096)
	if err != nil {
		t.Fatal(err)
	}
	heavy := &Problem{
		Net: net, Compute: NewProblem(net, 1, msft).Compute, Loop: timemodel.NoOverlap,
		Cost: cost.Default(), BWBudget: 1000, MinDimBW: 0.1,
		Targets: []Target{{Workload: msft, Weight: 100}, {Workload: rn, Weight: 1}},
	}
	rHeavy, err := heavy.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	solo := NewProblem(net, 1000, msft)
	rSolo, err := solo.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	// With a 100:1 weight the group design must track the solo optimum.
	if rHeavy.Times[0] > rSolo.Times[0]*1.05 {
		t.Errorf("heavily weighted MSFT-1T time %v far from solo optimum %v", rHeavy.Times[0], rSolo.Times[0])
	}
}

func TestSkipBudgetWithCostConstraint(t *testing.T) {
	net := topology.FourD4K()
	w := mustMSFT(t, 4096)
	const dollars = 15e6
	p := NewProblem(net, 0, w)
	p.SkipBudget = true
	p.Constraints = []ConstraintSpec{DollarBudget(dollars)}
	res, err := p.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > dollars*(1+1e-6) {
		t.Errorf("iso-cost optimum spent $%.0f > $%.0f", res.Cost, dollars)
	}
	// The optimizer should spend nearly the whole dollar budget.
	if res.Cost < dollars*0.95 {
		t.Errorf("iso-cost optimum only spent $%.0f of $%.0f", res.Cost, dollars)
	}
}

func TestEqualBWForCost(t *testing.T) {
	net := topology.FourD4K()
	bw, err := EqualBWForCost(cost.Default(), net, 15e6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(bw); i++ {
		if !approx(bw[i], bw[0], 1e-12) {
			t.Errorf("iso-cost EqualBW not equal: %v", bw)
		}
	}
	c, err := cost.Network(cost.Default(), net, bw)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(c, 15e6, 1e-9) {
		t.Errorf("iso-cost EqualBW costs $%.0f, want $15M", c)
	}
}

func TestValidation(t *testing.T) {
	net := topology.ThreeD4K()
	w := mustMSFT(t, 4096)
	cases := []*Problem{
		{},                       // empty
		NewProblem(nil, 100, w),  // no network
		NewProblem(net, 100),     // no targets
		NewProblem(net, -5, w),   // bad budget
		NewProblem(net, 0.05, w), // budget below the floor
	}
	for i, p := range cases {
		if _, err := p.Optimize(); err == nil {
			t.Errorf("problem %d unexpectedly optimized", i)
		}
	}
}

func TestEvaluateRejectsBadBW(t *testing.T) {
	net := topology.ThreeD4K()
	p := NewProblem(net, 300, mustMSFT(t, 4096))
	if _, err := p.Evaluate(topology.BWConfig{1, 2}); err == nil {
		t.Error("wrong-length BW should error")
	}
}

func TestObjectiveString(t *testing.T) {
	if PerfOpt.String() != "PerfOptBW" || PerfPerCostOpt.String() != "PerfPerCostOptBW" {
		t.Errorf("objective names: %v %v", PerfOpt, PerfPerCostOpt)
	}
}

func TestResultPerfPerCost(t *testing.T) {
	r := Result{WeightedTime: 2, Cost: 5}
	if !approx(r.PerfPerCost(), 0.1, 1e-12) {
		t.Errorf("PerfPerCost = %v", r.PerfPerCost())
	}
	if (Result{}).PerfPerCost() != 0 {
		t.Error("zero result should have zero ppc")
	}
}

// Larger budgets can only help training time (model sanity end-to-end).
func TestMoreBudgetNeverHurts(t *testing.T) {
	net := topology.ThreeD4K()
	w := mustMSFT(t, 4096)
	var prev float64 = math.Inf(1)
	for _, budget := range []float64{100, 300, 1000} {
		p := NewProblem(net, budget, w)
		r, err := p.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		if r.WeightedTime > prev*(1+1e-6) {
			t.Errorf("budget %v slower than smaller budget: %v > %v", budget, r.WeightedTime, prev)
		}
		prev = r.WeightedTime
	}
}
