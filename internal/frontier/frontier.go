// Package frontier computes cost–performance Pareto frontiers over LIBRA
// problem specs — the paper's headline artifacts (§VI): for a topology and
// workload mix, how does the best achievable iteration time trade against
// network dollars as the bandwidth budget (and optionally a per-dimension
// cap) sweeps?
//
// A frontier is a batch of optimizations derived from one base
// ProblemSpec. Each cap value is one column: the Solver (typically
// *core.Engine, which bounds concurrency, deduplicates identical points
// via the spec fingerprint cache, and single-flights concurrent
// duplicates) builds the base spec with that cap once, and Walk solves
// every budget of the column on that one built problem (codesign and
// cluster walk their own columns the same way). The workload-agnostic
// EqualBW baseline curve is priced separately through the first column's
// core.Evaluator — the evaluator depends only on the network, workloads,
// and models, never on the budget or a cap, so a single preparation
// serves every point of the sweep.
package frontier

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"libra/internal/core"
)

// Solver opens a column on a spec (core.Column): a frontier's cap
// column, a co-design candidate, a cluster job. *core.Engine satisfies
// it. Implementors must be safe for concurrent use — Compute runs one
// chain per cap column concurrently.
type Solver interface {
	Column(spec *core.ProblemSpec) (core.Column, error)
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
// the "frontier" stage, or under the enclosing study's stage inside
// core.WithStage.
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

	if d := req.CapDim; d > 0 {
		net, nerr := base.Network()
		if nerr != nil {
			return nil, fmt.Errorf("%w: %w", core.ErrBadSpec, nerr)
		}
		if d > net.NumDims() {
			return nil, fmt.Errorf("%w: cap_dim %d out of range 1..%d", core.ErrBadSpec, d, net.NumDims())
		}
	}
	// Open one column per cap value; opening builds and validates the
	// spec. Columns open at the largest budget so a single
	// infeasibly-small grid point fails per-point below instead of
	// sinking the whole frontier. The spec copies are shallow: only the
	// budget and the constraint list (copied on append) differ.
	maxBudget := budgets[0]
	for _, b := range budgets {
		if b > maxBudget {
			maxBudget = b
		}
	}
	cols := make([]core.Column, len(caps))
	for ci, c := range caps {
		spec := *base
		spec.BudgetGBps = maxBudget
		if req.CapDim > 0 {
			spec.Constraints = append(base.Constraints[:len(base.Constraints):len(base.Constraints)], core.DimCap(req.CapDim, c))
		}
		if cols[ci], err = s.Column(&spec); err != nil {
			return nil, err
		}
	}
	// The one Evaluator shared by every baseline point (its preparation
	// is budget- and cap-independent). Prepared only when the curve is
	// wanted — SkipEqualBW callers like codesign's budget sweeps would
	// otherwise pay a full per-target mapping preparation as pure setup
	// overhead.
	var eval *core.Evaluator
	if !req.SkipEqualBW {
		if eval, err = cols[0].Evaluator(); err != nil {
			return nil, fmt.Errorf("%w: %w", core.ErrBadSpec, err)
		}
	}

	start := time.Now()
	tracker := core.NewProgressTracker(ctx, "frontier", len(budgets)*len(caps))
	// One warm chain per cap column, the columns concurrently; a lone
	// column's points are the frontier's points as they stand.
	columns := make([][]Point, len(caps))
	var wg sync.WaitGroup
	for ci := range caps {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			columns[ci] = Walk(ctx, cols[ci], budgets, req.NoWarmStart, tracker)
		}(ci)
	}
	wg.Wait()
	res := &Result{Points: columns[0]}
	if len(caps) > 1 {
		res.Points = make([]Point, 0, len(budgets)*len(caps))
		for bi := range budgets {
			for ci := range caps {
				res.Points = append(res.Points, columns[ci][bi])
			}
		}
	}
	for i := range res.Points {
		res.Points[i].CapGBps = caps[i%len(caps)]
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Solves, res.CacheHits = Tally(res.Points)

	if !req.SkipEqualBW {
		for _, b := range budgets {
			pt := Point{BudgetGBps: b}
			r, err := eval.EqualBW(b)
			if err != nil {
				pt.Error = err.Error()
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

// Walk solves one column at every budget of the axis as a sequential
// warm chain: budgets in ascending order, each point seeded from its
// nearest already-solved neighbor scaled to its budget
// (core.ScaleWarmStart) unless noWarmStart, a failed point keeping the
// last good neighbor as the seed. Every point ticks t as it lands, and
// the points come back in axis order with failures in place. Compute
// walks each of its cap columns; studies walk the columns they already
// hold (a co-design candidate, a cluster job's partition shares).
func Walk(ctx context.Context, col core.Column, budgets []float64, noWarmStart bool, t *core.ProgressTracker) []Point {
	points := make([]Point, len(budgets))
	order := make([]int, len(budgets))
	for i, b := range budgets {
		points[i].BudgetGBps = b
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return budgets[order[a]] < budgets[order[b]] })
	var prev *Point
	for _, bi := range order {
		pt := &points[bi]
		var warm []float64
		if !noWarmStart && prev != nil {
			warm = core.ScaleWarmStart(prev.Result.BW, prev.BudgetGBps, pt.BudgetGBps)
		}
		r, err := col.Optimize(ctx, pt.BudgetGBps, warm)
		if err != nil {
			pt.Error = err.Error()
			t.Tick(false)
			continue
		}
		pt.Result = r.Result
		pt.Fingerprint = r.Fingerprint
		pt.Cached = r.Cached
		t.Tick(r.Cached)
		prev = pt
	}
	return points
}

// Tally counts the points answered by a fresh solve and those served
// from the solver's cache; a failed point is neither.
func Tally(points []Point) (solves, cacheHits int) {
	for _, pt := range points {
		switch {
		case pt.Error != "":
		case pt.Cached:
			cacheHits++
		default:
			solves++
		}
	}
	return solves, cacheHits
}

// MarkPareto flags the points of the (cost, time)-minimizing Pareto set.
// A point is dominated when another succeeds with cost and time both no
// worse and at least one strictly better; duplicated optima all survive.
// Exported so composing subsystems (internal/codesign's co-design
// frontier) can re-mark merged point sets with identical semantics.
func MarkPareto(points []Point) {
	for i := range points {
		if points[i].Error != "" {
			continue
		}
		dominated := false
		ci, ti := points[i].Result.Cost, points[i].Result.WeightedTime
		for j := range points {
			if i == j || points[j].Error != "" {
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
