package opt

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"libra/internal/telemetry"
)

func approx(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestSolveDense(t *testing.T) {
	x := make([]float64, 2)
	if !solveAugmented([][]float64{{2, 1, 5}, {1, 3, 10}}, x) {
		t.Fatal("nonsingular system reported singular")
	}
	if !approx(x[0], 1, 1e-9) || !approx(x[1], 3, 1e-9) {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSolveDensePivoting(t *testing.T) {
	// Zero on the diagonal forces pivoting.
	x := make([]float64, 2)
	if !solveAugmented([][]float64{{0, 1, 2}, {1, 0, 3}}, x) {
		t.Fatal("nonsingular system reported singular")
	}
	if !approx(x[0], 3, 1e-9) || !approx(x[1], 2, 1e-9) {
		t.Errorf("x = %v", x)
	}
}

func TestSolveDenseSingular(t *testing.T) {
	if solveAugmented([][]float64{{1, 2, 1}, {2, 4, 2}}, make([]float64, 2)) {
		t.Error("singular system should fail")
	}
}

func TestConstraintsViolationAndFeasible(t *testing.T) {
	c := NewConstraints(2).SumEquals(10).SetAllLower(0)
	if !c.Feasible([]float64{4, 6}, 1e-9) {
		t.Error("[4 6] should be feasible")
	}
	if c.Feasible([]float64{4, 5}, 1e-9) {
		t.Error("[4 5] violates the budget")
	}
	if c.Feasible([]float64{-1, 11}, 1e-9) {
		t.Error("[-1 11] violates the bound")
	}
	if v := c.Violation([]float64{-1, 11}); !approx(v, 1, 1e-9) {
		t.Errorf("violation = %v, want 1 (bound breach)", v)
	}
}

func TestConstraintBuilders(t *testing.T) {
	c := NewConstraints(3).
		SumAtMost(100).
		VarAtMost(2, 20).
		VarAtLeast(0, 5).
		Ordered(0, 1).
		PairSumEquals(0, 1, 60).
		WeightedSumAtMost([]float64{1, 2, 3}, 500)
	ok := []float64{40, 20, 20}
	if !c.Feasible(ok, 1e-9) {
		t.Errorf("%v should be feasible (violation %v)", ok, c.Violation(ok))
	}
	bad := [][]float64{
		{10, 50, 20}, // violates Ordered(0,1)
		{40, 20, 45}, // violates SumAtMost and VarAtMost
		{2, 58, 20},  // violates VarAtLeast(0,5)
		{30, 20, 10}, // violates PairSumEquals
	}
	for _, x := range bad {
		if c.Feasible(x, 1e-9) {
			t.Errorf("%v should be infeasible", x)
		}
	}
}

func TestProjectOntoSimplex(t *testing.T) {
	// Project (10, 0) onto {x ≥ 0, x1+x2 = 10}: closest point is (10, 0).
	c := NewConstraints(2).SumEquals(10).SetAllLower(0)
	x := Project(c, []float64{10, 0})
	if !approx(x[0], 10, 1e-6) || math.Abs(x[1]) > 1e-6 {
		t.Errorf("projection = %v, want [10 0]", x)
	}
	// Project (8, 8): symmetric excess → (4+2, 4+2) = (6, 6)? No:
	// projection onto the hyperplane x1+x2=10 from (8,8) is (5,5).
	x = Project(c, []float64{8, 8})
	if !approx(x[0], 5, 1e-6) || !approx(x[1], 5, 1e-6) {
		t.Errorf("projection = %v, want [5 5]", x)
	}
	// Strongly negative coordinate activates the bound.
	x = Project(c, []float64{14, -4})
	if !approx(x[0], 10, 1e-6) || math.Abs(x[1]) > 1e-6 {
		t.Errorf("projection = %v, want [10 0]", x)
	}
}

func TestProjectRespectsUpperBounds(t *testing.T) {
	c := NewConstraints(2).SumEquals(10).SetAllLower(0)
	c.VarAtMost(0, 6)
	x := Project(c, []float64{100, 0})
	if !approx(x[0], 6, 1e-6) || !approx(x[1], 4, 1e-6) {
		t.Errorf("projection = %v, want [6 4]", x)
	}
}

func TestProjectFeasiblePointIsIdentity(t *testing.T) {
	c := NewConstraints(3).SumAtMost(100).SetAllLower(0)
	in := []float64{10, 20, 30}
	x := Project(c, in)
	for i := range in {
		if !approx(x[i], in[i], 1e-9) {
			t.Errorf("projection moved a feasible point: %v", x)
		}
	}
}

// Dykstra and the active-set QP must agree on the projection.
func TestQuickProjectionMethodsAgree(t *testing.T) {
	c := NewConstraints(3).SumEquals(90).SetAllLower(0.5)
	c.VarAtMost(2, 40).Ordered(0, 1)
	f := func(a, b, d uint8) bool {
		x0 := []float64{float64(a), float64(b), float64(d)}
		pr := newProjector(c)
		if !pr.activeSet(x0) {
			return true // fallback path; nothing to compare
		}
		as := clone(pr.res)
		pr.dykstra(x0, 6000, 1e-13)
		dy := clone(pr.res)
		if !c.Feasible(as, 1e-6) || !c.Feasible(dy, 1e-6) {
			return false
		}
		return normDiff(as, dy) < 1e-3*(1+norm2(dy))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: projections are idempotent and feasible.
func TestQuickProjectIdempotent(t *testing.T) {
	c := NewConstraints(3).SumEquals(60).SetAllLower(0)
	f := func(a, b, d int8) bool {
		x0 := []float64{float64(a), float64(b), float64(d)}
		p1 := Project(c, x0)
		if !c.Feasible(p1, 1e-6) {
			return false
		}
		p2 := Project(c, p1)
		return normDiff(p1, p2) < 1e-6*(1+norm2(p1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMinimizeQuadratic(t *testing.T) {
	// min (x0−3)² + (x1−4)² s.t. x0+x1 = 5, x ≥ 0 → optimum (2, 3).
	p := Problem{
		N: 2,
		Objective: func(x []float64) float64 {
			return (x[0]-3)*(x[0]-3) + (x[1]-4)*(x[1]-4)
		},
		Cons: NewConstraints(2).SumEquals(5).SetAllLower(0),
	}
	res, err := Minimize(p, Options{Convex: true})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.X[0], 2, 1e-3) || !approx(res.X[1], 3, 1e-3) {
		t.Errorf("optimum = %v, want [2 3]", res.X)
	}
}

// The LIBRA PerfOpt archetype: min max(v1/x1, v2/x2) s.t. x1+x2 = B.
// Optimum equalizes the two terms: x_i ∝ v_i.
func TestMinimizeBottleneckObjective(t *testing.T) {
	v1, v2, B := 30.0, 10.0, 100.0
	p := Problem{
		N: 2,
		Objective: func(x []float64) float64 {
			if x[0] <= 0 || x[1] <= 0 {
				return math.Inf(1)
			}
			return math.Max(v1/x[0], v2/x[1])
		},
		Cons: NewConstraints(2).SumEquals(B).SetAllLower(0.01),
	}
	res, err := Minimize(p, Options{Convex: true, MaxIters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	wantX := []float64{B * v1 / (v1 + v2), B * v2 / (v1 + v2)}
	wantF := (v1 + v2) / B
	if !approx(res.F, wantF, 1e-3) {
		t.Errorf("objective = %v, want %v (x = %v, want %v)", res.F, wantF, res.X, wantX)
	}
}

// Sum of bottleneck terms across several "collectives" (the real PerfOpt
// shape) against a fine brute-force grid.
func TestMinimizeSumOfMaxesMatchesBruteForce(t *testing.T) {
	v := [][]float64{{40, 4}, {10, 20}, {5, 1}}
	B := 60.0
	obj := func(x []float64) float64 {
		if x[0] <= 0 || x[1] <= 0 {
			return math.Inf(1)
		}
		s := 0.0
		for _, vk := range v {
			s += math.Max(vk[0]/x[0], vk[1]/x[1])
		}
		return s
	}
	p := Problem{N: 2, Objective: obj, Cons: NewConstraints(2).SumEquals(B).SetAllLower(0.01)}
	res, err := Minimize(p, Options{Convex: true, MaxIters: 3000})
	if err != nil {
		t.Fatal(err)
	}
	bestF := math.Inf(1)
	for i := 1; i < 6000; i++ {
		x := []float64{B * float64(i) / 6000, B * (1 - float64(i)/6000)}
		if f := obj(x); f < bestF {
			bestF = f
		}
	}
	if res.F > bestF*(1+2e-3) {
		t.Errorf("solver %v worse than grid %v", res.F, bestF)
	}
}

// Nonconvex perf-per-cost archetype: (Σ v/x) × (c·x). Multistart must find
// the global optimum found by brute force.
func TestMinimizePerfPerCostMatchesBruteForce(t *testing.T) {
	v := []float64{40, 5}
	c := []float64{1, 10}
	obj := func(x []float64) float64 {
		if x[0] <= 0.01 || x[1] <= 0.01 {
			return math.Inf(1)
		}
		time := math.Max(v[0]/x[0], v[1]/x[1])
		cost := c[0]*x[0] + c[1]*x[1]
		return time * cost
	}
	cons := NewConstraints(2).SumAtMost(100).SetAllLower(0.05)
	p := Problem{N: 2, Objective: obj, Cons: cons}
	res, err := Minimize(p, Options{MaxIters: 2000, Starts: 12})
	if err != nil {
		t.Fatal(err)
	}
	bestF := math.Inf(1)
	for i := 1; i < 1200; i++ {
		for j := 1; j < 1200; j++ {
			x := []float64{float64(i) * 100 / 1200, float64(j) * 100 / 1200}
			if x[0]+x[1] > 100 {
				continue
			}
			if f := obj(x); f < bestF {
				bestF = f
			}
		}
	}
	if res.F > bestF*(1+5e-3) {
		t.Errorf("solver %v worse than grid %v (x = %v)", res.F, bestF, res.X)
	}
}

func TestMinimizeWithOrderingConstraint(t *testing.T) {
	// min (x0−1)² + (x1−9)² s.t. x0 ≥ x1, x0+x1 = 10 → optimum (5, 5).
	p := Problem{
		N: 2,
		Objective: func(x []float64) float64 {
			return (x[0]-1)*(x[0]-1) + (x[1]-9)*(x[1]-9)
		},
		Cons: NewConstraints(2).SumEquals(10).SetAllLower(0).Ordered(0, 1),
	}
	res, err := Minimize(p, Options{Convex: true})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.X[0], 5, 1e-2) || !approx(res.X[1], 5, 1e-2) {
		t.Errorf("optimum = %v, want [5 5]", res.X)
	}
}

func TestMinimizeInputValidation(t *testing.T) {
	if _, err := Minimize(Problem{}, Options{}); err == nil {
		t.Error("empty problem should error")
	}
	p := Problem{N: 2, Objective: func(x []float64) float64 { return 0 }, Cons: NewConstraints(3)}
	if _, err := Minimize(p, Options{}); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestMinimizeDeterministic(t *testing.T) {
	p := Problem{
		N: 3,
		Objective: func(x []float64) float64 {
			return math.Max(9/x[0], math.Max(3/x[1], 1/x[2])) * (x[0] + 2*x[1] + 4*x[2])
		},
		Cons: NewConstraints(3).SumAtMost(30).SetAllLower(0.1),
	}
	r1, err := Minimize(p, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Minimize(p, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r1.F != r2.F || normDiff(r1.X, r2.X) != 0 {
		t.Errorf("same seed gave different answers: %v vs %v", r1, r2)
	}
}

// perfPerCostProblem is the nonconvex multistart archetype used by the
// determinism tests: enough structure that different starts land in
// different basins.
func perfPerCostProblem(n int) Problem {
	return Problem{
		N: n,
		Objective: func(x []float64) float64 {
			t, cost := 0.0, 0.0
			for i := range x {
				if x[i] <= 0.01 {
					return math.Inf(1)
				}
				t += float64(10*(n-i)) / x[i]
				cost += float64(1+3*i) * x[i]
			}
			return t * cost
		},
		Cons: NewConstraints(n).SumAtMost(100).SetAllLower(0.05),
	}
}

// Parallel multistart must return bit-identical Result fields to the
// sequential path for a fixed seed, for both strategies, convex or not.
func TestMinimizeParallelMatchesSequential(t *testing.T) {
	for _, strategy := range []Strategy{StrategyAuto, StrategyCoordinateDescent} {
		for _, convex := range []bool{false, true} {
			for _, seed := range []int64{1, 7, 42} {
				base := Options{Seed: seed, Starts: 10, Convex: convex, Strategy: strategy}
				seq := base
				seq.Workers = 1
				par := base
				par.Workers = 8
				p := perfPerCostProblem(3)
				r1, err := Minimize(p, seq)
				if err != nil {
					t.Fatalf("%s convex=%v seed=%d sequential: %v", strategy, convex, seed, err)
				}
				r2, err := Minimize(p, par)
				if err != nil {
					t.Fatalf("%s convex=%v seed=%d parallel: %v", strategy, convex, seed, err)
				}
				if r1.F != r2.F || normDiff(r1.X, r2.X) != 0 || r1.Converged != r2.Converged {
					t.Errorf("%s convex=%v seed=%d: parallel diverged: %+v vs %+v", strategy, convex, seed, r1, r2)
				}
				if !convex && r1.Starts != r2.Starts {
					t.Errorf("%s seed=%d: start counts differ: %d vs %d", strategy, seed, r1.Starts, r2.Starts)
				}
			}
		}
	}
}

// The convex early exit must report the same Starts count at any worker
// count: convex starts run one at a time whatever Workers says.
func TestMinimizeParallelConvexEarlyExit(t *testing.T) {
	p := Problem{
		N: 2,
		Objective: func(x []float64) float64 {
			return (x[0]-3)*(x[0]-3) + (x[1]-4)*(x[1]-4)
		},
		Cons: NewConstraints(2).SumEquals(5).SetAllLower(0),
	}
	seq, err := Minimize(p, Options{Convex: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Minimize(p, Options{Convex: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Starts != par.Starts || seq.F != par.F || normDiff(seq.X, par.X) != 0 {
		t.Errorf("convex early exit diverged: %+v vs %+v", seq, par)
	}
}

func TestMinimizeParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := perfPerCostProblem(3)
	if _, err := MinimizeContext(ctx, p, Options{Workers: 4}); err == nil {
		t.Fatal("canceled context should error")
	}
}

// doubleWell is a non-convex 2-variable problem on the plane x0 + x1 = 10
// with its global minimum 0 at (8, 2) and a worse local minimum 1 at
// (2, 8): a warm start in the worse well loses to the first cold start
// (the equal split descends into the global one), so the warm cutoff
// does not fire, while a warm start in the global well fires it.
func doubleWell() Problem {
	return Problem{
		N: 2,
		Objective: func(x []float64) float64 {
			a := (x[0]-8)*(x[0]-8) + (x[1]-2)*(x[1]-2)
			b := (x[0]-2)*(x[0]-2) + (x[1]-8)*(x[1]-8) + 1
			return math.Min(a, b)
		},
		Cons: NewConstraints(2).SumEquals(10).SetAllLower(0),
	}
}

// No start may run whose outcome the fold throws away: convex starts run
// one at a time, a warm pair runs before the rest while the cutoff is
// undecided, and cold non-convex starts fan out in full. So the starts
// counter moves by exactly Result.Starts, and worker count changes
// nothing in the result.
func TestSolverRunsOnlyFoldedStarts(t *testing.T) {
	quad := Problem{
		N: 3,
		Objective: func(x []float64) float64 {
			return (x[0]-5)*(x[0]-5) + (x[1]-3)*(x[1]-3) + (x[2]-2)*(x[2]-2)
		},
		Cons: NewConstraints(3).SumEquals(10).SetAllLower(0),
	}
	cases := []struct {
		name    string
		p       Problem
		o       Options
		warmCut bool
	}{
		{"convex cold", quad, Options{Convex: true, Seed: 7}, false},
		{"non-convex cold", perfPerCostProblem(3), Options{Seed: 7}, false},
		{"non-convex warm cut", doubleWell(), Options{WarmStart: []float64{8, 2}}, true},
		{"non-convex warm no cut", doubleWell(), Options{WarmStart: []float64{2, 8}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var first *Result
			for _, workers := range []int{1, 8} {
				o := c.o
				o.Workers = workers
				before := telemetry.SolverStarts.Value()
				res, err := Minimize(c.p, o)
				if err != nil {
					t.Fatal(err)
				}
				if ran := telemetry.SolverStarts.Value() - before; ran != uint64(res.Starts) {
					t.Errorf("workers=%d: ran %d starts, folded %d", workers, ran, res.Starts)
				}
				if res.WarmCut != c.warmCut {
					t.Errorf("workers=%d: WarmCut = %v, want %v", workers, res.WarmCut, c.warmCut)
				}
				if first == nil {
					first = &res
					continue
				}
				if !sameBits(res.X, first.X) || math.Float64bits(res.F) != math.Float64bits(first.F) ||
					res.Starts != first.Starts || res.WarmCut != first.WarmCut {
					t.Errorf("workers=%d diverged from workers=1: %+v vs %+v", workers, res, *first)
				}
			}
		})
	}
}

// Coordinate descent must solve the discrete-transfer-friendly archetypes
// the projected-gradient path already passes.
func TestCoordinateDescentFindsOptimum(t *testing.T) {
	v1, v2, B := 30.0, 10.0, 100.0
	p := Problem{
		N: 2,
		Objective: func(x []float64) float64 {
			if x[0] <= 0 || x[1] <= 0 {
				return math.Inf(1)
			}
			return math.Max(v1/x[0], v2/x[1])
		},
		Cons: NewConstraints(2).SumEquals(B).SetAllLower(0.01),
	}
	res, err := Minimize(p, Options{Strategy: StrategyCoordinateDescent, MaxIters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	wantF := (v1 + v2) / B
	if !approx(res.F, wantF, 1e-2) {
		t.Errorf("objective = %v, want %v (x = %v)", res.F, wantF, res.X)
	}
}

// Coordinate descent must respect caps and ordering via re-projection.
func TestCoordinateDescentHonorsConstraints(t *testing.T) {
	p := perfPerCostProblem(3)
	p.Cons.VarAtMost(0, 20).Ordered(1, 2)
	res, err := Minimize(p, Options{Strategy: StrategyCoordinateDescent})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Cons.Feasible(res.X, 1e-6) {
		t.Errorf("coordinate descent left the feasible set: %v (violation %v)", res.X, p.Cons.Violation(res.X))
	}
}

// The default strategy picks each start's local search from Convex:
// projected gradient for a convex objective, coordinate descent for a
// non-convex one, each followed by the polish. "projected-gradient" is a
// spelling of the default (Options normalize it to StrategyAuto) and must
// solve identically; only an explicit coordinate-descent skips the polish.
func TestDefaultStrategyFollowsConvexity(t *testing.T) {
	p := perfPerCostProblem(3)
	cases := []struct {
		strategy        Strategy
		convex          bool
		pgd, cd, polish bool
	}{
		{StrategyAuto, true, true, false, true},
		{StrategyAuto, false, false, true, true},
		{"projected-gradient", false, false, true, true},
		{StrategyCoordinateDescent, true, false, true, false},
		{StrategyCoordinateDescent, false, false, true, false},
	}
	var nonConvexDefault *Result
	for _, c := range cases {
		pgd, cd, nm := telemetry.SolverPGDIterations.Value(), telemetry.SolverCDIterations.Value(), telemetry.SolverNMIterations.Value()
		res, err := Minimize(p, Options{Starts: 4, Workers: 1, Convex: c.convex, Strategy: c.strategy})
		if err != nil {
			t.Fatal(err)
		}
		ran := func(before uint64, v interface{ Value() uint64 }) bool { return v.Value() > before }
		if got := ran(pgd, telemetry.SolverPGDIterations); got != c.pgd {
			t.Errorf("%q convex=%v: ran projected gradient = %v, want %v", c.strategy, c.convex, got, c.pgd)
		}
		if got := ran(cd, telemetry.SolverCDIterations); got != c.cd {
			t.Errorf("%q convex=%v: ran coordinate descent = %v, want %v", c.strategy, c.convex, got, c.cd)
		}
		if got := ran(nm, telemetry.SolverNMIterations); got != c.polish {
			t.Errorf("%q convex=%v: ran the polish = %v, want %v", c.strategy, c.convex, got, c.polish)
		}
		if c.strategy == StrategyCoordinateDescent || c.convex {
			continue
		}
		if nonConvexDefault == nil {
			nonConvexDefault = &res
		} else if res.F != nonConvexDefault.F || normDiff(res.X, nonConvexDefault.X) != 0 {
			t.Errorf("%q solved differently from the default: %+v vs %+v", c.strategy, res, *nonConvexDefault)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]Strategy{
		"":                   StrategyAuto,
		"projected-gradient": StrategyAuto,
		"pgd":                StrategyAuto,
		"coordinate-descent": StrategyCoordinateDescent,
		"cd":                 StrategyCoordinateDescent,
	}
	for in, want := range cases {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseStrategy("simulated-annealing"); err == nil {
		t.Error("unknown strategy should error")
	}
}

// Zero-value and sentinel option handling: zeros select defaults, the
// sentinels select the literal values, negatives in count fields error.
func TestOptionsZeroValuesAndSentinels(t *testing.T) {
	o, err := Options{}.withDefaults(0)
	if err != nil {
		t.Fatal(err)
	}
	if o.MaxIters != 600 || o.Tol != 1e-9 || o.Starts != 8 || o.Seed != 1 || o.Workers < 1 {
		t.Errorf("defaults = %+v", o)
	}
	o, err = Options{Tol: TolExact, Seed: SeedZero}.withDefaults(0)
	if err != nil {
		t.Fatal(err)
	}
	if o.Tol != 0 {
		t.Errorf("TolExact should select exactly-zero tolerance, got %v", o.Tol)
	}
	if o.Seed != 0 {
		t.Errorf("SeedZero should select the literal seed 0, got %v", o.Seed)
	}
	for _, bad := range []Options{{MaxIters: -1}, {Starts: -2}, {Workers: -1}, {Strategy: "nope"}} {
		if _, err := bad.withDefaults(0); err == nil {
			t.Errorf("%+v should be rejected", bad)
		}
	}
	// Alias spellings must normalize, not silently fall through to the
	// default strategy.
	o, err = Options{Strategy: "cd"}.withDefaults(0)
	if err != nil {
		t.Fatal(err)
	}
	if o.Strategy != StrategyCoordinateDescent {
		t.Errorf("alias 'cd' normalized to %q, want %q", o.Strategy, StrategyCoordinateDescent)
	}
	p := perfPerCostProblem(2)
	if _, err := Minimize(p, Options{Starts: -1}); err == nil {
		t.Error("Minimize should reject negative Starts")
	}
}

// An exactly-zero seed must be usable and deterministic, and distinct
// from the default seed's start set.
func TestSeedZeroIsDeterministic(t *testing.T) {
	p := perfPerCostProblem(3)
	r1, err := Minimize(p, Options{Seed: SeedZero})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Minimize(p, Options{Seed: SeedZero})
	if err != nil {
		t.Fatal(err)
	}
	if r1.F != r2.F || normDiff(r1.X, r2.X) != 0 {
		t.Errorf("SeedZero gave different answers: %+v vs %+v", r1, r2)
	}
}

func TestNumGradMatchesAnalytic(t *testing.T) {
	f := func(x []float64) float64 { return 3*x[0]*x[0] + 2*x[0]*x[1] + x[1]*x[1] }
	x := []float64{1.5, -2}
	g := make([]float64, len(x))
	numGradInto(g, f, x, clone(x), clone(x))
	want := []float64{6*x[0] + 2*x[1], 2*x[0] + 2*x[1]}
	for i := range g {
		if !approx(g[i], want[i], 1e-4) {
			t.Errorf("grad[%d] = %v, want %v", i, g[i], want[i])
		}
	}
}

// A fixed (seed, warm vector) pair must give bit-identical results
// regardless of worker count, exactly like the cold solve.
func TestWarmStartDeterministicAcrossWorkers(t *testing.T) {
	p := perfPerCostProblem(3)
	warm := []float64{40, 30, 20}
	base := Options{Seed: 7, Starts: 8, WarmStart: warm}
	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 8
	r1, err := Minimize(p, seq)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Minimize(p, par)
	if err != nil {
		t.Fatal(err)
	}
	if r1.F != r2.F || normDiff(r1.X, r2.X) != 0 || r1.Starts != r2.Starts || r1.WarmCut != r2.WarmCut {
		t.Errorf("warm solve diverged across workers: %+v vs %+v", r1, r2)
	}
	r3, err := Minimize(p, seq)
	if err != nil {
		t.Fatal(err)
	}
	if r1.F != r3.F || normDiff(r1.X, r3.X) != 0 {
		t.Errorf("warm solve not repeatable: %+v vs %+v", r1, r3)
	}
}

// Seeding the solve with its own cold optimum must fire the adaptive
// cutoff: the warm search re-converges to the proven basin, matches the
// first cold start within warmTol, and the remaining starts are skipped.
func TestWarmStartCutoffFires(t *testing.T) {
	p := perfPerCostProblem(3)
	cold, err := Minimize(p, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Minimize(p, Options{Seed: 7, WarmStart: cold.X})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmCut || warm.Starts != 2 {
		t.Fatalf("cutoff should stop after the warm + first cold start: %+v", warm)
	}
	if warm.F > cold.F*(1+1e-6) {
		t.Errorf("warm-cut result %v worse than cold optimum %v", warm.F, cold.F)
	}
}

// A warm point whose projection lands where the objective is +Inf is
// dropped, and the solve is bit-identical to the cold one.
func TestWarmStartInfeasibleDropped(t *testing.T) {
	p := Problem{
		N: 3,
		Objective: func(x []float64) float64 {
			if x[0] < 1 { // the warm point below projects to x[0] = 0.05
				return math.Inf(1)
			}
			t, cost := 0.0, 0.0
			for i := range x {
				t += float64(10*(3-i)) / x[i]
				cost += float64(1+3*i) * x[i]
			}
			return t * cost
		},
		Cons: NewConstraints(3).SumAtMost(100).SetAllLower(0.05),
	}
	cold, err := Minimize(p, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Minimize(p, Options{Seed: 7, WarmStart: []float64{0.05, 50, 49}})
	if err != nil {
		t.Fatal(err)
	}
	if warm.F != cold.F || normDiff(warm.X, cold.X) != 0 || warm.Starts != cold.Starts || warm.WarmCut {
		t.Errorf("dropped warm start changed the solve: %+v vs %+v", warm, cold)
	}
}

// Validate must reject malformed warm-start state exactly like the other
// zero/negative field rules, and accept the well-formed spellings.
func TestOptionsValidateWarmFields(t *testing.T) {
	bad := []Options{
		{WarmStart: []float64{1, 2}},               // wrong length for n=3
		{WarmStart: []float64{1, 2, math.NaN()}},   // NaN entry
		{WarmStart: []float64{1, math.Inf(-1), 2}}, // -Inf entry
		{WarmStart: []float64{math.Inf(1), 1, 2}},  // +Inf entry
	}
	for i, o := range bad {
		if err := o.Validate(3); err == nil {
			t.Errorf("case %d: Validate accepted malformed %+v", i, o)
		}
	}
	good := []Options{
		{},
		{WarmStart: []float64{1, 2, 3}},
	}
	for i, o := range good {
		if err := o.Validate(3); err != nil {
			t.Errorf("case %d: Validate rejected %+v: %v", i, o, err)
		}
	}
	// n ≤ 0 skips only the length check; entry finiteness still applies.
	if err := (Options{WarmStart: []float64{1, 2}}).Validate(0); err != nil {
		t.Errorf("unknown dimension should skip the length check: %v", err)
	}
	if err := (Options{WarmStart: []float64{math.NaN()}}).Validate(0); err == nil {
		t.Error("NaN entry must fail even with unknown dimension")
	}
}

// ErrInfeasible marks only an empty feasible set: no candidate projects
// onto the constraints. A problem whose feasible points all price at +Inf
// fails too, but with another error, since the constraints are not at
// fault.
func TestErrInfeasibleOnlyForEmptyFeasibleSet(t *testing.T) {
	f := func(x []float64) float64 { return 1/x[0] + 1/x[1] }
	empty := Problem{N: 2, Objective: f, Cons: NewConstraints(2).SumEquals(10).SetAllLower(0.1).VarAtLeast(0, 20)}
	if _, err := Minimize(empty, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("floor over the budget: err = %v, want ErrInfeasible", err)
	}
	inf := func([]float64) float64 { return math.Inf(1) }
	unpriced := Problem{N: 2, Objective: inf, Cons: NewConstraints(2).SumEquals(10).SetAllLower(0.1)}
	if _, err := Minimize(unpriced, Options{}); err == nil || errors.Is(err, ErrInfeasible) {
		t.Errorf("+Inf everywhere: err = %v, want a non-ErrInfeasible failure", err)
	}
	if _, err := Minimize(Problem{N: 2, Objective: f, Cons: NewConstraints(2).SumEquals(10).SetAllLower(0.1)}, Options{}); err != nil {
		t.Errorf("feasible problem: %v", err)
	}
}
