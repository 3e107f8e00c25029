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
	// StrategyAuto is the empty default: projected gradient.
	StrategyAuto Strategy = ""
	// StrategyProjectedGradient runs monotone projected gradient descent
	// with a penalized Nelder-Mead polish — the continuous relaxation the
	// paper solves with Gurobi.
	StrategyProjectedGradient Strategy = "projected-gradient"
	// StrategyCoordinateDescent greedily transfers discrete bandwidth
	// quanta between dimension pairs, halving the quantum as moves stop
	// paying off — a hill-climbing cousin of the paper's exhaustive
	// search over discrete BW partitions. Derivative-free, so it also
	// serves objectives too kinked for PGD.
	StrategyCoordinateDescent Strategy = "coordinate-descent"
)

// ParseStrategy reads a strategy key ("", "projected-gradient"/"pgd",
// "coordinate-descent"/"cd").
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "projected-gradient", "pgd":
		if s == "" {
			return StrategyAuto, nil
		}
		return StrategyProjectedGradient, nil
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
// negligible relative to the point's scale.
func coordinateDescent(ctx context.Context, p Problem, pr *projector, start []float64, o Options) (x []float64, f float64, converged bool) {
	cand := make([]float64, len(start))
	x = clone(start)
	f = p.Objective(x)
	scale := math.Max(norm2(x), 1)
	step := scale / 8
	for iter := 0; iter < o.MaxIters; iter++ {
		if ctx.Err() != nil {
			return x, f, false
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
				return x, f, true
			}
		}
	}
	return x, f, false
}
