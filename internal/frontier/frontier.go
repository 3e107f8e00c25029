// Package frontier computes cost–performance Pareto frontiers over LIBRA
// problem specs — the paper's headline artifacts (§VI): for a topology and
// workload mix, how does the best achievable iteration time trade against
// network dollars as the bandwidth budget (and optionally a per-dimension
// cap) sweeps?
//
// A frontier is a batch of optimizations derived from one base
// ProblemSpec. Each point clones the spec, sets the swept budget/cap, and
// solves it through a Solver (typically *core.Engine, which bounds
// concurrency, deduplicates identical points via the spec fingerprint
// cache, and single-flights concurrent duplicates). The workload-agnostic
// EqualBW baseline curve is priced separately through one prepared
// core.Evaluator — the evaluator depends only on the network, workloads,
// and models, never on the budget, so a single preparation serves every
// point of the sweep.
package frontier

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"libra/internal/core"
	"libra/internal/telemetry"
	"libra/internal/topology"
)

// Solver solves one derived spec; *core.Engine satisfies it. Implementors
// must be safe for concurrent use — Compute runs one chain per cap column
// concurrently.
type Solver interface {
	Optimize(ctx context.Context, spec *core.ProblemSpec) (core.EngineResult, error)
}

// Request describes the sweep axes of a frontier computation. Budgets may
// be listed explicitly or generated as a linear grid; the optional cap
// axis crosses every budget with a cap on one dimension (the "how much is
// the expensive tier worth" study).
type Request struct {
	// Budgets lists explicit per-NPU bandwidth budgets (GB/s). When set,
	// the grid fields are ignored.
	Budgets []float64 `json:"budgets,omitempty"`
	// BudgetMin/BudgetMax/BudgetSteps generate an inclusive linear grid
	// of BudgetSteps points (≥ 2) when Budgets is empty.
	BudgetMin   float64 `json:"budget_min,omitempty"`
	BudgetMax   float64 `json:"budget_max,omitempty"`
	BudgetSteps int     `json:"budget_steps,omitempty"`
	// CapDim (1-based) and CapsGBps optionally add a second axis: every
	// budget is solved once per cap value with B_CapDim ≤ cap appended.
	CapDim   int       `json:"cap_dim,omitempty"`
	CapsGBps []float64 `json:"caps_gbps,omitempty"`
	// SkipEqualBW drops the EqualBW baseline curve.
	SkipEqualBW bool `json:"skip_equal_bw,omitempty"`
	// NoWarmStart disables neighbor warm-starting: every point runs the
	// full cold multistart instead of seeding from the adjacent
	// already-solved budget in its cap column. Results are then bit-wise
	// reproducible against a single-point solve of the same spec; warm
	// results agree only within solver tolerance.
	NoWarmStart bool `json:"no_warm_start,omitempty"`
}

// BudgetAxis resolves the budget axis to an explicit list: Budgets
// verbatim when set, otherwise the inclusive BudgetMin..BudgetMax grid of
// BudgetSteps points — validated and core.MaxPoints-bounded either way.
// Callers that consume the axis outside a frontier computation (the CLI's
// -codesign mode) share this expansion so the grid semantics exist once.
func (r Request) BudgetAxis() ([]float64, error) { return r.budgets() }

// budgets resolves the budget axis.
func (r Request) budgets() ([]float64, error) {
	if len(r.Budgets) > 0 {
		for _, b := range r.Budgets {
			if !(b > 0) {
				return nil, fmt.Errorf("%w: frontier budget must be positive, got %v", core.ErrBadSpec, b)
			}
		}
		return append([]float64(nil), r.Budgets...), nil
	}
	if r.BudgetSteps < 2 || !(r.BudgetMin > 0) || !(r.BudgetMax > r.BudgetMin) {
		return nil, fmt.Errorf("%w: frontier needs explicit budgets or 0 < budget_min < budget_max with budget_steps ≥ 2",
			core.ErrBadSpec)
	}
	if r.BudgetSteps > core.MaxPoints {
		return nil, fmt.Errorf("%w: budget_steps %d exceeds the %d-point limit", core.ErrBadSpec, r.BudgetSteps, core.MaxPoints)
	}
	out := make([]float64, r.BudgetSteps)
	span := r.BudgetMax - r.BudgetMin
	for i := range out {
		out[i] = r.BudgetMin + span*float64(i)/float64(r.BudgetSteps-1)
	}
	return out, nil
}

// Point is one evaluated cell of the sweep: its coordinates, the solved
// (or baseline) design point, and service metadata. Failed points carry
// the error in place so one infeasible budget does not sink the frontier.
type Point struct {
	BudgetGBps float64 `json:"budget_gbps"`
	// CapGBps is the swept cap on the request's CapDim (0 = no cap axis).
	CapGBps     float64     `json:"cap_gbps,omitempty"`
	Result      core.Result `json:"result"`
	Fingerprint string      `json:"fingerprint,omitempty"`
	Cached      bool        `json:"cached,omitempty"`
	// Pareto marks points no other point dominates on (cost, time).
	Pareto bool   `json:"pareto"`
	Err    error  `json:"-"`
	Error  string `json:"error,omitempty"`
}

// Result is a computed frontier: every swept point in axis order, the
// Pareto-optimal subset sorted by ascending cost, and the EqualBW baseline
// curve.
type Result struct {
	Points []Point `json:"points"`
	// Frontier holds the Pareto-optimal points by ascending cost.
	Frontier []Point `json:"frontier"`
	// EqualBW is the workload-agnostic baseline curve (one point per
	// budget, no cap axis), priced by a single shared Evaluator.
	EqualBW []Point `json:"equal_bw,omitempty"`
	// Solves counts points answered by a fresh solve; CacheHits counts
	// points served from the Solver's fingerprint cache.
	Solves    int     `json:"solves"`
	CacheHits int     `json:"cache_hits"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Compute sweeps the request axes against the base spec and assembles the
// cost–performance frontier. Each cap column is solved as a sequential
// chain over ascending budgets so every point warm-starts from its
// neighbor (unless req.NoWarmStart); columns run concurrently through the
// solver. Per-point failures are reported in place, and the call only
// fails for an invalid request/spec or a canceled context. A context
// progress hook (core.WithProgress) observes points as they land under
// the "frontier" stage.
func Compute(ctx context.Context, s Solver, base *core.ProblemSpec, req Request) (*Result, error) {
	if s == nil {
		return nil, fmt.Errorf("frontier: nil solver")
	}
	if base == nil {
		return nil, fmt.Errorf("%w: frontier needs a base spec", core.ErrBadSpec)
	}
	budgets, err := req.budgets()
	if err != nil {
		return nil, err
	}
	caps := req.CapsGBps
	if req.CapDim > 0 && len(caps) == 0 {
		return nil, fmt.Errorf("%w: cap_dim %d set without caps_gbps", core.ErrBadSpec, req.CapDim)
	}
	if req.CapDim <= 0 && len(caps) > 0 {
		return nil, fmt.Errorf("%w: caps_gbps set without cap_dim", core.ErrBadSpec)
	}
	if len(caps) == 0 {
		caps = []float64{0} // single no-cap column
	}
	if n := len(budgets) * len(caps); n > core.MaxPoints {
		return nil, fmt.Errorf("%w: %d frontier points exceed the %d-point limit", core.ErrBadSpec, n, core.MaxPoints)
	}

	// Build the base problem once: it validates the spec up front. The
	// largest budget is used so a single infeasibly-small grid point
	// fails per-point below instead of sinking the whole frontier.
	maxBudget := budgets[0]
	for _, b := range budgets {
		if b > maxBudget {
			maxBudget = b
		}
	}
	baseSpec := base.Clone()
	baseSpec.BudgetGBps = maxBudget
	baseProblem, err := baseSpec.Build()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", core.ErrBadSpec, err)
	}
	if d := req.CapDim; d > 0 && d > baseProblem.Net.NumDims() {
		return nil, fmt.Errorf("%w: cap_dim %d out of range 1..%d", core.ErrBadSpec, d, baseProblem.Net.NumDims())
	}
	// The one Evaluator shared by every baseline point (its preparation
	// is budget-independent). Prepared only when the curve is wanted —
	// SkipEqualBW callers like codesign's budget sweeps would otherwise
	// pay a full per-target mapping preparation as pure setup overhead.
	var eval *core.Evaluator
	if !req.SkipEqualBW {
		if eval, err = baseProblem.NewEvaluator(); err != nil {
			return nil, fmt.Errorf("%w: %w", core.ErrBadSpec, err)
		}
	}

	start := time.Now()
	res := &Result{Points: make([]Point, 0, len(budgets)*len(caps))}
	for _, b := range budgets {
		for _, c := range caps {
			res.Points = append(res.Points, Point{BudgetGBps: b, CapGBps: c})
		}
	}
	tracker := core.NewProgressTracker(ctx, "frontier", len(res.Points))

	// Budget indices in ascending budget order. Each cap column is walked
	// along this order as a sequential warm chain — every point seeds from
	// its nearest already-solved neighbor — while columns run concurrently.
	// Results still land in res.Points in the original axis order.
	order := make([]int, len(budgets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return budgets[order[a]] < budgets[order[b]] })

	// pointSpec derives the point's spec from the base. Warm state is
	// attached after cloning — Clone round-trips JSON and warm fields are
	// runtime-only (json:"-"), so it can never carry them.
	pointSpec := func(pt *Point, warm []float64) *core.ProblemSpec {
		spec := base.Clone()
		spec.BudgetGBps = pt.BudgetGBps
		if req.CapDim > 0 {
			spec.Constraints = append(spec.Constraints, core.DimCap(req.CapDim, pt.CapGBps))
		}
		if warm != nil {
			sol := &core.SolverSpec{}
			if spec.Solver != nil {
				*sol = *spec.Solver
			}
			sol.WarmStart = warm
			spec.Solver = sol
		}
		return spec
	}
	solveOne := func(pt *Point, warm []float64) {
		spec := pointSpec(pt, warm)
		r, err := s.Optimize(ctx, spec)
		if err != nil && warm != nil && ctx.Err() == nil {
			// An unusable warm vector must not sink the point: retry cold.
			spec.Solver.WarmStart = nil
			r, err = s.Optimize(ctx, spec)
		}
		if err != nil {
			pt.Err, pt.Error = err, err.Error()
			tracker.Tick(false)
			return
		}
		pt.Result = r.Result
		pt.Fingerprint = r.Fingerprint
		pt.Cached = r.Cached
		tracker.Tick(r.Cached)
	}
	perfObjective := baseProblem.Objective == core.PerfOpt

	var wg sync.WaitGroup
	for ci := range caps {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var prev *Point
			for _, bi := range order {
				pt := &res.Points[bi*len(caps)+ci]
				var warm []float64
				if !req.NoWarmStart && prev != nil {
					warm = core.ScaleWarmStart(prev.Result.BW, prev.BudgetGBps, pt.BudgetGBps)
				}
				solveOne(pt, warm)
				if pt.Err != nil {
					continue // keep the last good neighbor as the seed
				}
				// Under the perf objective more budget can never cost time,
				// so a warm-started point slower than its smaller-budget
				// neighbor means the chain latched onto a worse basin.
				// Re-solve cold (directly — the solver's cache already holds
				// the warm answer for this fingerprint) and keep the better.
				if warm != nil && perfObjective &&
					pt.Result.WeightedTime > prev.Result.WeightedTime*(1+1e-9) {
					telemetry.WarmGuardTrips.Inc()
					if p, err := pointSpec(pt, nil).Build(); err == nil {
						if r, err := p.OptimizeContext(ctx); err == nil && r.WeightedTime < pt.Result.WeightedTime {
							pt.Result = r
							pt.Cached = false
						}
					}
				}
				prev = pt
			}
		}(ci)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range res.Points {
		if res.Points[i].Err != nil {
			continue
		}
		if res.Points[i].Cached {
			res.CacheHits++
		} else {
			res.Solves++
		}
	}

	if !req.SkipEqualBW {
		ndims := baseProblem.Net.NumDims()
		for _, b := range budgets {
			pt := Point{BudgetGBps: b}
			r, err := eval.Evaluate(topology.EqualBW(b, ndims))
			if err != nil {
				pt.Err, pt.Error = err, err.Error()
			} else {
				pt.Result = r
			}
			res.EqualBW = append(res.EqualBW, pt)
		}
	}

	MarkPareto(res.Points)
	for _, p := range res.Points {
		if p.Pareto {
			res.Frontier = append(res.Frontier, p)
		}
	}
	sort.SliceStable(res.Frontier, func(i, j int) bool {
		a, b := res.Frontier[i], res.Frontier[j]
		if a.Result.Cost != b.Result.Cost {
			return a.Result.Cost < b.Result.Cost
		}
		return a.Result.WeightedTime < b.Result.WeightedTime
	})
	res.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return res, nil
}

// MarkPareto flags the points of the (cost, time)-minimizing Pareto set.
// A point is dominated when another succeeds with cost and time both no
// worse and at least one strictly better; duplicated optima all survive.
// Exported so composing subsystems (internal/codesign's co-design
// frontier) can re-mark merged point sets with identical semantics.
func MarkPareto(points []Point) {
	for i := range points {
		if points[i].Err != nil {
			continue
		}
		dominated := false
		ci, ti := points[i].Result.Cost, points[i].Result.WeightedTime
		for j := range points {
			if i == j || points[j].Err != nil {
				continue
			}
			cj, tj := points[j].Result.Cost, points[j].Result.WeightedTime
			if cj <= ci && tj <= ti && (cj < ci || tj < ti) {
				dominated = true
				break
			}
		}
		points[i].Pareto = !dominated
	}
}
