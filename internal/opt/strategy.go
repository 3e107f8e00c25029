package opt

import (
	"context"
	"fmt"
	"math"
)

// Strategy selects the per-start local search of the multistart solver.
// The string form is what SolverSpec serializes, so values are stable API.
type Strategy string

const (
	// StrategyAuto is the empty default, which picks each start's local
	// search from Options.Convex. A convex objective (perf) runs monotone
	// projected gradient descent with a penalized Nelder-Mead polish, the
	// continuous relaxation the paper solves with Gurobi. A non-convex one
	// (perf-per-cost) runs coordinate descent with the same polish:
	// iteration time × dollars kinks wherever a collective's slowest
	// dimension changes, and projected gradient crawls along the first
	// kink it meets until the iteration cap, while pairwise transfers stay
	// on the budget plane and step across kinks. "projected-gradient"
	// and "pgd" parse to it, so specs that name them keep their answers
	// and fingerprints.
	StrategyAuto Strategy = ""
	// StrategyCoordinateDescent greedily transfers discrete bandwidth
	// quanta between dimension pairs, halving the quantum as moves stop
	// paying off — a hill-climbing cousin of the paper's exhaustive
	// search over discrete BW partitions — with no polish, whatever the
	// objective's convexity.
	StrategyCoordinateDescent Strategy = "coordinate-descent"
)

// ParseStrategy reads a strategy key ("" or its spellings
// "projected-gradient"/"pgd", and "coordinate-descent"/"cd").
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "projected-gradient", "pgd":
		return StrategyAuto, nil
	case "coordinate-descent", "cd":
		return StrategyCoordinateDescent, nil
	default:
		return "", fmt.Errorf("opt: unknown strategy %q (want projected-gradient or coordinate-descent)", s)
	}
}

// coordinateDescent walks the discrete-partition neighborhood: at each
// sweep it tries moving one quantum of bandwidth from every dimension j to
// every dimension i, keeping strictly improving transfers (re-projected so
// caps, floors, and ordering constraints stay satisfied). When no transfer
// improves, the quantum halves; the search converges once the quantum is
// negligible relative to the point's scale. iters reports how many sweeps
// executed, for the caller's telemetry.
func coordinateDescent(ctx context.Context, p Problem, pr *projector, start []float64, o Options) (x []float64, f float64, converged bool, iters int) {
	cand := make([]float64, len(start))
	x = clone(start)
	f = p.Objective(x)
	scale := math.Max(norm2(x), 1)
	step := scale / 8
	for iter := 0; iter < o.MaxIters; iter++ {
		iters = iter + 1
		if ctx.Err() != nil {
			return x, f, false, iters
		}
		improved := false
		for i := 0; i < p.N; i++ {
			for j := 0; j < p.N; j++ {
				if i == j {
					continue
				}
				copy(cand, x)
				cand[i] += step
				cand[j] -= step
				proj := pr.project(cand)
				if fc := p.Objective(proj); fc < f-1e-15*math.Abs(f) {
					copy(x, proj)
					f = fc
					improved = true
				}
			}
		}
		if !improved {
			step /= 2
			if step < 1e-7*scale {
				return x, f, true, iters
			}
		}
	}
	return x, f, false, iters
}
