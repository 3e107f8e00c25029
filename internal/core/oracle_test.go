package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"libra/internal/telemetry"
)

// gridBest exhaustively searches the n-dimensional design grid on the
// budget plane — B_d = k_d·budget/quanta with Σk_d = quanta and every B_d
// at or above floor — and returns the lowest objective found. This is
// the exhaustive search over bandwidth quanta of the original LIBRA
// study, used as an oracle independent of the solver.
func gridBest(f func([]float64) float64, n, quanta int, budget, floor float64) (best float64, at []float64) {
	q := budget / float64(quanta)
	kmin := int(math.Ceil(floor/q - 1e-9))
	best = math.Inf(1)
	x := make([]float64, n)
	var walk func(d, left int)
	walk = func(d, left int) {
		if d == n-1 {
			x[d] = float64(left) * q
			if v := f(x); v < best {
				best, at = v, append(at[:0], x...)
			}
			return
		}
		for k := kmin; k <= left-(n-1-d)*kmin; k++ {
			x[d] = float64(k) * q
			walk(d+1, left-k)
		}
	}
	walk(0, quanta)
	return best, at
}

// TestSolverMatchesGridOracle checks the solver against the exhaustive
// grid on seeded cold-solve-shaped mixes (the three Table II transformers
// at random weights and budgets), scoring both with the optimizer's own
// objective: 3D-4K and 3D-1K under both objectives on a 600-quanta grid,
// and 4D-4K perf-per-cost on a 120-quanta grid (~300k points).
//
// perf-per-cost must match or beat the grid's best point. perf is held to
// a 1e-3 relative gap: on 3D-1K the solver misses the grid by up to
// ~2.5e-4. That miss predates the exact projection. The likely cause is
// the convex single-start exit stopping at a kink of the max-of-stages
// time objective, where projected gradient stalls and the polish cannot
// leave; fixing it would change every perf solve's path, so it is open.
func TestSolverMatchesGridOracle(t *testing.T) {
	both := []string{"perf-per-cost", "perf"}
	cases := []struct {
		topo       string
		objectives []string
		quanta     int
	}{
		{"3D-4K", both, 600},
		{"3D-1K", both, 600},
		{"4D-4K", []string{"perf-per-cost"}, 120},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			w := func() float64 { return 0.5 + rng.Float64() }
			spec := ProblemSpec{
				Topology: c.topo,
				Workloads: []WorkloadSpec{
					{Preset: "GPT-3", Weight: w()},
					{Preset: "Turing-NLG", Weight: w()},
					{Preset: "MSFT-1T", Weight: w()},
				},
				BudgetGBps: 200 + 800*rng.Float64(),
			}
			for _, objective := range c.objectives {
				spec.Objective = objective
				p, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				o, err := p.NewOptimizer()
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.OptimizeContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				f, _ := o.objective()
				got := f(res.BW)
				grid, at := gridBest(f, p.Net.NumDims(), c.quanta, p.BWBudget, p.minDimBW())
				gap := (got - grid) / math.Abs(grid)
				t.Logf("%s seed %d %s budget %.3f: solver %.10g at %.4g, grid %.10g at %.4g, gap %+.2e",
					c.topo, seed, objective, p.BWBudget, got, res.BW, grid, at, gap)
				switch {
				case objective == "perf-per-cost" && gap > 0:
					t.Errorf("%s seed %d perf-per-cost: solver %v is worse than the grid's %v (gap %.2e)",
						c.topo, seed, got, grid, gap)
				case gap > 1e-3:
					t.Errorf("%s seed %d %s: solver %v misses the grid's %v by %.2e > 1e-3",
						c.topo, seed, objective, got, grid, gap)
				}
			}
		}
	}
}

// TestGeneralPathSolveCounter checks libra_solver_general_path_solves_total:
// a solve whose constraints include an ordered row projects on the
// active-set/Dykstra path and counts once; a plain budget with a floor
// and a cap projects exactly and does not count.
func TestGeneralPathSolveCounter(t *testing.T) {
	specs := answerLockSpecs()
	cases := []struct {
		spec ProblemSpec
		want uint64
	}{
		{specs[6], 1}, // ordered rows
		{specs[8], 1}, // dim cap + ordered row
		{specs[7], 0}, // dim floor
		{specs[5], 0}, // dim cap
	}
	for i, tc := range cases {
		p, err := tc.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		solves, general := telemetry.SolverSolves.Value(), telemetry.SolverGeneralPathSolves.Value()
		if _, err := p.Optimize(); err != nil {
			t.Fatal(err)
		}
		if d := telemetry.SolverSolves.Value() - solves; d != 1 {
			t.Fatalf("case %d: solves delta %d, want 1", i, d)
		}
		if d := telemetry.SolverGeneralPathSolves.Value() - general; d != tc.want {
			t.Errorf("case %d (%v): general-path solves delta %d, want %d", i, tc.spec.Constraints, d, tc.want)
		}
	}
}
