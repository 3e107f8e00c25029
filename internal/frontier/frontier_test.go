package frontier

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"libra/internal/core"
)

func baseSpec() *core.ProblemSpec {
	return &core.ProblemSpec{
		Topology:  "3D-512",
		Workloads: []core.WorkloadSpec{{Preset: "GPT-3"}},
		// Tight solver budget: frontier tests exercise plumbing, not
		// solution quality.
		Solver: &core.SolverSpec{Starts: 2, MaxIters: 60},
	}
}

func TestRequestBudgetsGridAndList(t *testing.T) {
	got, err := Request{BudgetMin: 100, BudgetMax: 300, BudgetSteps: 3}.budgets()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{100, 200, 300}
	if len(got) != len(want) {
		t.Fatalf("grid = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grid = %v, want %v", got, want)
		}
	}
	got, err = Request{Budgets: []float64{500, 250}}.budgets()
	if err != nil || len(got) != 2 || got[0] != 500 {
		t.Fatalf("list = %v, %v", got, err)
	}
	bad := []Request{
		{},
		{BudgetMin: 100, BudgetMax: 50, BudgetSteps: 3},
		{BudgetMin: 100, BudgetMax: 200, BudgetSteps: 1},
		{Budgets: []float64{100, -5}},
	}
	for _, r := range bad {
		if _, err := r.budgets(); !errors.Is(err, core.ErrBadSpec) {
			t.Errorf("%+v should fail with ErrBadSpec, got %v", r, err)
		}
	}
}

func TestComputeFrontierEndToEnd(t *testing.T) {
	e := core.NewEngine(core.EngineConfig{})
	defer e.Close()
	res, err := Compute(context.Background(), e, baseSpec(),
		Request{BudgetMin: 150, BudgetMax: 600, BudgetSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 || len(res.EqualBW) != 4 {
		t.Fatalf("points = %d, equal_bw = %d, want 4 each", len(res.Points), len(res.EqualBW))
	}
	for i, p := range res.Points {
		if p.Err != nil {
			t.Fatalf("point %d failed: %v", i, p.Err)
		}
		if p.Fingerprint == "" {
			t.Errorf("point %d has no fingerprint", i)
		}
		if p.Result.WeightedTime <= 0 || p.Result.Cost <= 0 {
			t.Errorf("point %d unevaluated: %+v", i, p.Result)
		}
		// LIBRA must not lose to the workload-agnostic baseline.
		if eq := res.EqualBW[i]; eq.Err == nil && p.Result.WeightedTime > eq.Result.WeightedTime*1.01 {
			t.Errorf("budget %v: optimized %v slower than EqualBW %v",
				p.BudgetGBps, p.Result.WeightedTime, eq.Result.WeightedTime)
		}
	}
	// More budget can only help both time and cost tradeoffs here, so
	// every point should be Pareto-optimal and the frontier cost-sorted.
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for i := 1; i < len(res.Frontier); i++ {
		if res.Frontier[i].Result.Cost < res.Frontier[i-1].Result.Cost {
			t.Errorf("frontier not sorted by cost: %v after %v",
				res.Frontier[i].Result.Cost, res.Frontier[i-1].Result.Cost)
		}
	}
	if res.Solves == 0 {
		t.Error("no solves recorded")
	}
}

// Identical budgets must be answered once via the Engine's fingerprint
// cache / single-flight, not solved repeatedly.
func TestComputeDeduplicatesViaEngineCache(t *testing.T) {
	e := core.NewEngine(core.EngineConfig{})
	defer e.Close()
	res, err := Compute(context.Background(), e, baseSpec(),
		Request{Budgets: []float64{400, 400, 400}})
	if err != nil {
		t.Fatal(err)
	}
	stats := e.Stats()
	if stats.Misses != 1 {
		t.Errorf("3 identical points cost %d solves, want 1", stats.Misses)
	}
	if res.Solves+res.CacheHits != 3 {
		t.Errorf("solves %d + hits %d != 3 points", res.Solves, res.CacheHits)
	}
	for i := 1; i < 3; i++ {
		if res.Points[i].Result.WeightedTime != res.Points[0].Result.WeightedTime {
			t.Errorf("duplicate budgets answered differently")
		}
	}
}

func TestComputeCapAxis(t *testing.T) {
	e := core.NewEngine(core.EngineConfig{})
	defer e.Close()
	res, err := Compute(context.Background(), e, baseSpec(),
		Request{Budgets: []float64{400}, CapDim: 1, CapsGBps: []float64{50, 200}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Err != nil {
			t.Fatalf("cap %v failed: %v", p.CapGBps, p.Err)
		}
		if p.Result.BW[0] > p.CapGBps*(1+1e-6) {
			t.Errorf("cap %v ignored: dim 1 got %v GB/s", p.CapGBps, p.Result.BW[0])
		}
	}
	// The tighter cap cannot beat the looser one.
	if res.Points[0].Result.WeightedTime < res.Points[1].Result.WeightedTime*(1-1e-9) {
		t.Errorf("tighter cap outperformed looser: %v vs %v",
			res.Points[0].Result.WeightedTime, res.Points[1].Result.WeightedTime)
	}
}

func TestComputeBadRequests(t *testing.T) {
	e := core.NewEngine(core.EngineConfig{})
	defer e.Close()
	ctx := context.Background()
	cases := []struct {
		name string
		spec *core.ProblemSpec
		req  Request
	}{
		{"nil spec", nil, Request{Budgets: []float64{100}}},
		{"no axis", baseSpec(), Request{}},
		{"caps without dim", baseSpec(), Request{Budgets: []float64{100}, CapsGBps: []float64{10}}},
		{"dim without caps", baseSpec(), Request{Budgets: []float64{100}, CapDim: 2}},
		{"cap dim out of range", baseSpec(), Request{Budgets: []float64{100}, CapDim: 9, CapsGBps: []float64{10}}},
		{"bad spec", &core.ProblemSpec{Topology: "no-such"}, Request{Budgets: []float64{100}}},
		{"grid too large", baseSpec(), Request{BudgetMin: 1, BudgetMax: 2, BudgetSteps: 500_000_000}},
		{"cross product too large", baseSpec(), Request{
			BudgetMin: 100, BudgetMax: 1000, BudgetSteps: core.MaxPoints,
			CapDim: 1, CapsGBps: []float64{10, 20},
		}},
	}
	for _, c := range cases {
		if _, err := Compute(ctx, e, c.spec, c.req); !errors.Is(err, core.ErrBadSpec) {
			t.Errorf("%s: want ErrBadSpec, got %v", c.name, err)
		}
	}
}

// A budget below the per-dimension floor fails per point, not wholesale.
func TestComputeInfeasiblePointReportedInPlace(t *testing.T) {
	e := core.NewEngine(core.EngineConfig{})
	defer e.Close()
	spec := baseSpec()
	spec.MinDimBW = 50 // 3 dims × 50 floor: a 100 GB/s budget is infeasible
	res, err := Compute(context.Background(), e, spec, Request{Budgets: []float64{100, 400}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].Err == nil || !strings.Contains(res.Points[0].Error, "floor") {
		t.Errorf("infeasible point should fail in place, got %+v", res.Points[0])
	}
	if res.Points[1].Err != nil {
		t.Errorf("feasible point failed: %v", res.Points[1].Err)
	}
	if res.Points[0].Pareto {
		t.Error("failed point marked Pareto")
	}
}

func TestComputeCanceledContext(t *testing.T) {
	e := core.NewEngine(core.EngineConfig{})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compute(ctx, e, baseSpec(), Request{Budgets: []float64{400}}); err == nil {
		t.Fatal("canceled context should error")
	}
}

func TestMarkPareto(t *testing.T) {
	mk := func(cost, time float64) Point {
		return Point{Result: core.Result{Cost: cost, WeightedTime: time}}
	}
	pts := []Point{
		mk(10, 5), // pareto
		mk(20, 3), // pareto
		mk(20, 4), // dominated by (20, 3)
		mk(30, 3), // dominated by (20, 3)
		mk(30, 1), // pareto
		mk(10, 5), // duplicate optimum: survives
		{Err: errors.New("boom")},
	}
	MarkPareto(pts)
	want := []bool{true, true, false, false, true, true, false}
	for i, w := range want {
		if pts[i].Pareto != w {
			t.Errorf("point %d pareto = %v, want %v", i, pts[i].Pareto, w)
		}
	}
}

// fakeSolver counts calls; used to confirm concurrency plumbing without a
// real solve.
type fakeSolver struct{ calls atomic.Int64 }

func (f *fakeSolver) Optimize(ctx context.Context, spec *core.ProblemSpec) (core.EngineResult, error) {
	f.calls.Add(1)
	return core.EngineResult{Result: core.Result{Cost: spec.BudgetGBps, WeightedTime: 1 / spec.BudgetGBps}}, nil
}

func TestComputeUsesSolverPerPoint(t *testing.T) {
	s := &fakeSolver{}
	res, err := Compute(context.Background(), s, baseSpec(),
		Request{BudgetMin: 100, BudgetMax: 1000, BudgetSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.calls.Load(); got != 10 {
		t.Errorf("solver called %d times, want 10", got)
	}
	if len(res.Frontier) != 10 {
		t.Errorf("monotone tradeoff should be fully pareto, got %d of 10", len(res.Frontier))
	}
}

// Warm-started columns must land on the same frontier as the full cold
// sweep: point-for-point agreement within solver tolerance on the default
// grid shape. Separate engines keep the runs honest — warm state is
// excluded from fingerprints, so a shared engine would answer the cold
// run from the warm run's cache.
func TestComputeWarmMatchesColdSweep(t *testing.T) {
	req := Request{BudgetMin: 150, BudgetMax: 600, BudgetSteps: 4}
	warmE := core.NewEngine(core.EngineConfig{})
	defer warmE.Close()
	warm, err := Compute(context.Background(), warmE, baseSpec(), req)
	if err != nil {
		t.Fatal(err)
	}
	coldE := core.NewEngine(core.EngineConfig{})
	defer coldE.Close()
	creq := req
	creq.NoWarmStart = true
	cold, err := Compute(context.Background(), coldE, baseSpec(), creq)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold.Points {
		w, c := warm.Points[i], cold.Points[i]
		if w.Err != nil || c.Err != nil {
			t.Fatalf("point %d failed: warm %v, cold %v", i, w.Err, c.Err)
		}
		if rel := (w.Result.WeightedTime - c.Result.WeightedTime) / c.Result.WeightedTime; rel > 1e-2 || rel < -1e-2 {
			t.Errorf("budget %v: warm %v vs cold %v (rel %+.2e)",
				c.BudgetGBps, w.Result.WeightedTime, c.Result.WeightedTime, rel)
		}
	}
}

// warmSpySolver records which specs carried a warm start and returns a
// fixed BW vector so the chain has something to scale.
type warmSpySolver struct {
	mu     sync.Mutex
	warmed map[float64][]float64 // budget -> warm vector (nil when cold)
}

func (s *warmSpySolver) Optimize(ctx context.Context, spec *core.ProblemSpec) (core.EngineResult, error) {
	s.mu.Lock()
	var warm []float64
	if spec.Solver != nil {
		warm = spec.Solver.WarmStart
	}
	s.warmed[spec.BudgetGBps] = warm
	s.mu.Unlock()
	return core.EngineResult{Result: core.Result{
		BW:           []float64{spec.BudgetGBps / 2, spec.BudgetGBps / 2},
		Cost:         spec.BudgetGBps,
		WeightedTime: 1 / spec.BudgetGBps,
	}}, nil
}

// Budgets are chained ascending within a column: the smallest budget
// solves cold, every later one is seeded with the predecessor's BW scaled
// to its budget plane — regardless of the order the request listed them.
func TestComputeWarmChainsAscendingBudgets(t *testing.T) {
	s := &warmSpySolver{warmed: map[float64][]float64{}}
	if _, err := Compute(context.Background(), s, baseSpec(),
		Request{Budgets: []float64{600, 150, 300}}); err != nil {
		t.Fatal(err)
	}
	if got := s.warmed[150]; got != nil {
		t.Errorf("smallest budget should solve cold, got warm %v", got)
	}
	for _, tc := range []struct{ budget, prev float64 }{{300, 150}, {600, 300}} {
		warm := s.warmed[tc.budget]
		if warm == nil {
			t.Errorf("budget %v should be warm-started", tc.budget)
			continue
		}
		// Predecessor BW (prev/2, prev/2) scaled onto the new plane.
		for i, v := range warm {
			if want := tc.budget / 2; v != want {
				t.Errorf("budget %v warm[%d] = %v, want %v", tc.budget, i, v, want)
			}
		}
	}
	s2 := &warmSpySolver{warmed: map[float64][]float64{}}
	if _, err := Compute(context.Background(), s2, baseSpec(),
		Request{Budgets: []float64{600, 150, 300}, NoWarmStart: true}); err != nil {
		t.Fatal(err)
	}
	for budget, warm := range s2.warmed {
		if warm != nil {
			t.Errorf("NoWarmStart: budget %v still warm-started with %v", budget, warm)
		}
	}
}
