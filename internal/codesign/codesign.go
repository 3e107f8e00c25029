// Package codesign jointly optimizes the parallelization strategy and the
// multi-dimensional network bandwidth allocation of a training system —
// the paper's §VI-E co-design study as a subsystem.
//
// The headline observation it operationalizes: neither axis is separable.
// The best HP-(TP, PP, DP) factorization on a fixed network is not the
// best factorization once the network is co-designed for it, because each
// strategy redistributes traffic between tensor-parallel activations and
// data-parallel gradients, and the bandwidth optimizer in turn reshapes
// the network around that distribution (Fig. 21's interior peak).
//
// A study derives one core.ProblemSpec per memory-feasible strategy
// (workload.TransformerFootprint filters the rest) and opens it, like
// the baseline, as one column of a frontier.Solver — typically
// *core.Engine, which bounds workers, deduplicates identical candidates
// via the spec fingerprint cache, and honors context cancellation. The
// ranking solve, the EqualBW price and the walk over the optional budget
// axis (the co-design frontier: best strategy per budget) all run on that
// column. Per-candidate failures are reported in place, in each row's
// Error; a budget axis whose maximum the base problem cannot take is
// refused before any candidate is solved.
package codesign

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"libra/internal/core"
	"libra/internal/frontier"
	"libra/internal/topology"
	"libra/internal/workload"
)

// Baseline is the reference strategy priced on the workload-agnostic
// EqualBW network — the "what you would build without co-design" anchor
// every speedup in the report is measured against.
type Baseline struct {
	Strategy  workload.Strategy `json:"strategy"`
	Minibatch int               `json:"minibatch"`
	EqualBW   core.Result       `json:"equal_bw"`
}

// Candidate is one evaluated strategy: its memory footprint, the
// co-designed (optimized) network, the strategy's own EqualBW baseline,
// and speedups against the reference baseline. Failed candidates carry
// the error in place so one divergent solve does not sink the study.
type Candidate struct {
	Strategy     workload.Strategy `json:"strategy"`
	Minibatch    int               `json:"minibatch"`
	Microbatches int               `json:"microbatches,omitempty"`
	// Memory is the per-NPU Megatron+ZeRO footprint the feasibility
	// filter admitted; MemoryGB is its total in GB.
	Memory   workload.MemoryFootprint `json:"memory"`
	MemoryGB float64                  `json:"memory_gb"`
	// Optimized is the co-designed network for this strategy.
	Optimized core.Result `json:"optimized"`
	// EqualBW prices the strategy on the equal-split network (absent with
	// Spec.SkipEqualBW).
	EqualBW *core.Result `json:"equal_bw,omitempty"`
	// SpeedupVsBaseline is baseline-EqualBW time / co-designed time: the
	// joint win of changing both the strategy and the network.
	// EqualBWSpeedupVsBaseline isolates the strategy's share (network
	// still EqualBW).
	SpeedupVsBaseline        float64 `json:"speedup_vs_baseline,omitempty"`
	EqualBWSpeedupVsBaseline float64 `json:"equal_bw_speedup_vs_baseline,omitempty"`
	Fingerprint              string  `json:"fingerprint,omitempty"`
	Cached                   bool    `json:"cached,omitempty"`
	Error                    string  `json:"error,omitempty"`
}

// Skipped is a strategy the enumeration rejected before solving, with the
// reason (memory infeasibility, divisibility, microbatching).
type Skipped struct {
	Strategy  workload.Strategy `json:"strategy"`
	Minibatch int               `json:"minibatch,omitempty"`
	MemoryGB  float64           `json:"memory_gb,omitempty"`
	Reason    string            `json:"reason"`
}

// FrontierPoint is one cell of the co-design frontier: the best strategy
// at one budget, with the frontier-point payload (result, Pareto flag,
// cache metadata) it won with.
type FrontierPoint struct {
	Strategy workload.Strategy `json:"strategy"`
	frontier.Point
}

// Report is a computed co-design study.
type Report struct {
	Topology   string  `json:"topology"`
	NPUs       int     `json:"npus"`
	BudgetGBps float64 `json:"budget_gbps"`
	// MemoryGB echoes the feasibility capacity (0 = unlimited).
	MemoryGB    float64  `json:"memory_gb,omitempty"`
	GlobalBatch int      `json:"global_batch"`
	Baseline    Baseline `json:"baseline"`
	// Candidates holds every solved strategy ranked by ascending
	// co-designed iteration time (failed candidates last).
	Candidates []Candidate `json:"candidates"`
	Skipped    []Skipped   `json:"skipped,omitempty"`
	// Frontier is the co-design frontier (budget-axis mode only): the
	// best strategy at each swept budget, ascending, Pareto-marked on
	// (cost, time) across the selected points.
	Frontier []FrontierPoint `json:"frontier,omitempty"`
	// Solves counts fresh solver answers; CacheHits counts answers served
	// from the solver's fingerprint cache (EqualBW evaluations included).
	Solves    int     `json:"solves"`
	CacheHits int     `json:"cache_hits"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Best returns the top-ranked successful candidate, or nil when every
// candidate failed.
func (r *Report) Best() *Candidate {
	for i := range r.Candidates {
		if r.Candidates[i].Error == "" {
			return &r.Candidates[i]
		}
	}
	return nil
}

// Compute runs the co-design study: enumerate memory-feasible strategies,
// co-optimize each candidate's bandwidth allocation concurrently on its
// column, rank the joint optima against the reference baseline, and —
// when the spec carries a budget axis — assemble the co-design frontier.
// The call fails only for an invalid spec, a canceled context, or an
// unpriceable baseline; per-candidate failures are reported in place.
func Compute(ctx context.Context, s frontier.Solver, spec *Spec) (*Report, error) {
	if s == nil {
		return nil, fmt.Errorf("codesign: nil solver")
	}
	if spec == nil {
		return nil, fmt.Errorf("%w: codesign needs a spec", core.ErrBadSpec)
	}
	m, base, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	cands, skipped, err := spec.enumerate(m)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rep := &Report{
		Topology:    base.Topology,
		NPUs:        m.npus,
		BudgetGBps:  base.BudgetGBps,
		GlobalBatch: m.globalBatch,
		Skipped:     skipped,
	}
	if spec.MemoryGB > 0 {
		rep.MemoryGB = spec.MemoryGB
	}

	// Price the reference baseline first: every speedup is relative to
	// it, so an unpriceable baseline fails the study (unlike candidate
	// failures, which degrade it).
	eqBW := topology.EqualBW(base.BudgetGBps, m.net.NumDims())
	baseCand := m.baselineCandidate()
	baseSpec := m.candidateSpec(base, baseCand)
	baseCol, err := s.Column(baseSpec)
	var baseRes core.EngineResult
	if err == nil {
		baseRes, err = baseCol.Evaluate(ctx, eqBW)
	}
	if err != nil {
		return nil, fmt.Errorf("codesign: baseline %s: %w", baseCand.strat, err)
	}
	// Every candidate shares the base problem's floors: refuse, before
	// any solve, a budget axis whose maximum none of them could take.
	if len(spec.Budgets) > 0 {
		at := *baseSpec
		at.BudgetGBps = slices.Max(spec.Budgets)
		if _, err := at.Build(); err != nil {
			return nil, fmt.Errorf("%w: codesign: budget axis: %w", core.ErrBadSpec, err)
		}
	}
	rep.Baseline = Baseline{Strategy: baseCand.strat, Minibatch: baseCand.minibatch, EqualBW: baseRes.Result}
	countHit := func(cached bool) {
		if cached {
			rep.CacheHits++
		} else {
			rep.Solves++
		}
	}
	countHit(baseRes.Cached)

	// Solve every candidate concurrently; the solver bounds parallelism
	// and deduplicates identical specs. The progress stage covers the
	// baseline evaluation plus one tick per candidate. Candidate specs are
	// JSON-derived and carry no warm start, so ranking solves run cold.
	tracker := core.NewProgressTracker(ctx, "codesign", 1+len(cands))
	tracker.Tick(baseRes.Cached)
	rep.Candidates = make([]Candidate, len(cands))
	cols := make([]core.Column, len(cands))
	openErrs := make([]error, len(cands))
	eqCached := make([]bool, len(cands))
	var wg sync.WaitGroup
	for i, c := range cands {
		rep.Candidates[i] = Candidate{
			Strategy:     c.strat,
			Minibatch:    c.minibatch,
			Microbatches: c.microbatches,
			Memory:       c.mem,
			MemoryGB:     c.mem.TotalGB(),
		}
		wg.Add(1)
		go func(i int, out *Candidate, cspec *core.ProblemSpec) {
			defer wg.Done()
			var r core.EngineResult
			col, err := s.Column(cspec)
			openErrs[i] = err
			if err == nil {
				cols[i] = col
				if r, err = col.Optimize(ctx, cspec.BudgetGBps, nil); err == nil {
					out.Optimized, out.Fingerprint, out.Cached = r.Result, r.Fingerprint, r.Cached
				}
			}
			if err == nil && !spec.SkipEqualBW {
				var eq core.EngineResult
				if eq, err = col.Evaluate(ctx, eqBW); err == nil {
					out.EqualBW, eqCached[i] = &eq.Result, eq.Cached
				}
			}
			if err != nil {
				out.Error = err.Error()
			}
			tracker.Tick(r.Cached)
		}(i, &rep.Candidates[i], m.candidateSpec(base, c))
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	baseTime := rep.Baseline.EqualBW.WeightedTime
	for i := range rep.Candidates {
		c := &rep.Candidates[i]
		// A non-empty fingerprint means the optimize completed (and cost
		// a solve or a hit) even when the later EqualBW evaluation failed
		// the candidate, so the study's work accounting stays honest.
		if c.Fingerprint != "" {
			countHit(c.Cached)
		}
		if c.Error != "" {
			continue
		}
		if c.EqualBW != nil {
			countHit(eqCached[i])
		}
		if baseTime > 0 && c.Optimized.WeightedTime > 0 {
			c.SpeedupVsBaseline = baseTime / c.Optimized.WeightedTime
		}
		if c.EqualBW != nil && baseTime > 0 && c.EqualBW.WeightedTime > 0 {
			c.EqualBWSpeedupVsBaseline = baseTime / c.EqualBW.WeightedTime
		}
	}
	if len(spec.Budgets) > 0 {
		// A frontier walks every candidate's column; one that did not
		// open fails the study, the first in enumeration order named.
		for i, err := range openErrs {
			if err != nil {
				return nil, fmt.Errorf("codesign: frontier for %s: %w", cands[i].strat, err)
			}
		}
		if err := computeFrontier(ctx, rep, cols, cands, spec.Budgets); err != nil {
			return nil, err
		}
	}
	rank(rep.Candidates)
	rep.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return rep, nil
}

// rank orders candidates by ascending co-designed iteration time, failed
// candidates last, ties broken by (PP, TP) for determinism.
func rank(cands []Candidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := &cands[i], &cands[j]
		if (a.Error == "") != (b.Error == "") {
			return a.Error == ""
		}
		if a.Error == "" && a.Optimized.WeightedTime != b.Optimized.WeightedTime {
			return a.Optimized.WeightedTime < b.Optimized.WeightedTime
		}
		if a.Strategy.PPOr1() != b.Strategy.PPOr1() {
			return a.Strategy.PPOr1() < b.Strategy.PPOr1()
		}
		return a.Strategy.TP < b.Strategy.TP
	})
}

// computeFrontier walks every candidate's column over the budget axis
// (sharing the study's solver and its cache) and keeps, per budget, the
// strategy with the best iteration time. The selected points are
// Pareto-marked on (cost, time) as a set — the co-design frontier of
// §VI-E. It runs before the ranking, while rep.Candidates is still in
// enumeration order, the order of cols.
func computeFrontier(ctx context.Context, rep *Report, cols []core.Column, cands []candidate, budgets []float64) error {
	// Every candidate is walked — including ones whose ranking-budget
	// solve failed: solvability is budget-dependent (a constraint set
	// satisfiable at one budget need not be at another), so the walk
	// probes each (strategy, budget) cell itself and failures stay
	// per-point. The study's cands×budgets bound caps the worst case.
	// Every walk lands its points on the one "codesign-frontier" stage as
	// they finish.
	tracker := core.NewProgressTracker(ctx, "codesign-frontier", len(cands)*len(budgets))
	results := make([][]frontier.Point, len(cands))
	var wg sync.WaitGroup
	for i, col := range cols {
		wg.Add(1)
		go func(i int, col core.Column) {
			defer wg.Done()
			results[i] = frontier.Walk(ctx, col, budgets, false, tracker)
		}(i, col)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, points := range results {
		solves, hits := frontier.Tally(points)
		rep.Solves += solves
		rep.CacheHits += hits
	}

	// Budgets may repeat in the request; frontier.Walk returns points in
	// axis order, so index i of every candidate's walk is budget i.
	order := make([]int, len(budgets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return budgets[order[a]] < budgets[order[b]] })
	rep.Frontier = make([]FrontierPoint, 0, len(budgets))
	for _, bi := range order {
		best := -1
		for ci, points := range results {
			pt := points[bi]
			if pt.Error != "" {
				continue
			}
			if best < 0 || pt.Result.WeightedTime < results[best][bi].Result.WeightedTime {
				best = ci
			}
		}
		if best < 0 {
			rep.Frontier = append(rep.Frontier, FrontierPoint{Point: frontier.Point{
				BudgetGBps: budgets[bi],
				Error:      fmt.Sprintf("codesign: no strategy solved at budget %v", budgets[bi]),
			}})
			continue
		}
		rep.Frontier = append(rep.Frontier, FrontierPoint{
			Strategy: cands[best].strat,
			Point:    results[best][bi],
		})
	}
	pts := make([]frontier.Point, len(rep.Frontier))
	for i := range rep.Frontier {
		pts[i] = rep.Frontier[i].Point
	}
	frontier.MarkPareto(pts)
	for i := range rep.Frontier {
		rep.Frontier[i].Point = pts[i]
	}
	return nil
}
