package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"libra/internal/topology"
	"libra/internal/workload"
)

// A warm solve and a cold solve of the same spec share one engine cache
// entry: whichever runs first populates it, the other hits.
func TestEngineCacheSharedBetweenWarmAndCold(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 2, CacheSize: 8})
	defer e.Close()
	ctx := context.Background()

	col, err := e.Column(smallSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := col.Optimize(ctx, 300, []float64{150, 150})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("first (warm) solve reported cached")
	}
	r2, err := e.Optimize(ctx, smallSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("cold solve of the same spec missed the warm solve's cache entry")
	}
	if r2.Result.WeightedTime != r1.Result.WeightedTime {
		t.Errorf("cached result differs: %v vs %v", r2.Result.WeightedTime, r1.Result.WeightedTime)
	}
	if s := e.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v; want 1 hit, 1 miss", s)
	}
}

// A column point whose warm vector the solver rejects must fall back to
// the cold solve and return its answer bit for bit.
func TestEngineUnusableWarmStartSolvesCold(t *testing.T) {
	ctx := context.Background()
	solve := func(t *testing.T, warm []float64) Result {
		t.Helper()
		e := NewEngine(EngineConfig{Workers: 1, CacheSize: -1})
		defer e.Close()
		col, err := e.Column(smallSpec(300))
		if err != nil {
			t.Fatal(err)
		}
		r, err := col.Optimize(ctx, 300, warm)
		if err != nil {
			t.Fatal(err)
		}
		return r.Result
	}
	cold := solve(t, nil)
	for _, c := range []struct {
		name string
		warm []float64
	}{
		{"wrong length", []float64{100, 100, 100}},
		{"NaN entry", []float64{150, math.NaN()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := solve(t, c.warm); !reflect.DeepEqual(got, cold) {
				t.Errorf("warm solve = %+v, want the cold answer %+v", got, cold)
			}
		})
	}
}

func TestScaleWarmStart(t *testing.T) {
	got := ScaleWarmStart(topology.BWConfig{30, 20, 10}, 60, 120)
	want := []float64{60, 40, 20}
	if len(got) != len(want) {
		t.Fatalf("scaled = %v, want %v", got, want)
	}
	for i := range want {
		if !approx(got[i], want[i], 1e-12) {
			t.Fatalf("scaled = %v, want %v", got, want)
		}
	}
	// Unusable inputs return nil — the caller falls back to a cold solve.
	bad := []struct {
		name string
		bw   topology.BWConfig
		from float64
		to   float64
	}{
		{"empty bw", nil, 60, 120},
		{"zero from", topology.BWConfig{30}, 0, 120},
		{"negative from", topology.BWConfig{30}, -1, 120},
		{"zero to", topology.BWConfig{30}, 60, 0},
		{"NaN entry", topology.BWConfig{math.NaN()}, 60, 120},
		{"Inf entry", topology.BWConfig{math.Inf(1)}, 60, 120},
		{"scale overflows", topology.BWConfig{1e-301, 2e-301}, 1e-300, 1e300},
		{"entries overflow", topology.BWConfig{1e300, 2e300}, 1e-10, 1e10},
	}
	for _, c := range bad {
		if got := ScaleWarmStart(c.bw, c.from, c.to); got != nil {
			t.Errorf("%s: got %v, want nil", c.name, got)
		}
	}
}

// SolveBudget with a warm seed must agree with the cold solve within
// solver tolerance, and a nil warm vector must be the cold solve exactly.
func TestOptimizerSolveBudgetWarmMatchesCold(t *testing.T) {
	net, err := topology.Parse("RI(4)_SW(8)")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.TuringNLG(32)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(net, 300, w)
	p.Objective = PerfPerCostOpt
	o, err := p.NewOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cold, err := o.SolveBudget(ctx, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold2, err := o.SolveBudget(ctx, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.WeightedTime != cold2.WeightedTime {
		t.Errorf("cold SolveBudget not deterministic: %v vs %v", cold.WeightedTime, cold2.WeightedTime)
	}
	prev, err := o.SolveBudget(ctx, 250, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := o.SolveBudget(ctx, 300, ScaleWarmStart(prev.BW, 250, 300))
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(warm.PerfPerCost()-cold.PerfPerCost()) / cold.PerfPerCost(); rel > 1e-2 {
		t.Errorf("warm solve diverged from cold: ppc %v vs %v (rel %.2e)",
			warm.PerfPerCost(), cold.PerfPerCost(), rel)
	}
}
