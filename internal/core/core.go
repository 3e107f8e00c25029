// Package core implements the LIBRA framework (paper §IV): workload-aware,
// design-time optimization of per-dimension network bandwidth for
// multi-dimensional training fabrics.
//
// A Problem bundles the target network, one or more weighted target
// workloads, the compute and cost models, the training loop, and the
// design constraints. Optimize searches the bandwidth space for the
// configuration that maximizes the chosen objective:
//
//   - PerfOpt minimizes (weighted) end-to-end training time;
//   - PerfPerCostOpt minimizes time × dollar cost (the reciprocal of
//     performance-per-cost).
//
// The EqualBW baseline — the paper's workload-agnostic straw person —
// splits the bandwidth budget evenly across dimensions.
//
// The package offers two construction paths: a serializable ProblemSpec
// (spec.go) for tooling, services and Go literals, and NewProblem plus
// direct field assignment for full control. Long solves are cancellable
// through the Context variants of Optimize/Evaluate, and Engine
// (engine.go) layers a concurrent, cached service on top.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"libra/internal/compute"
	"libra/internal/cost"
	"libra/internal/opt"
	"libra/internal/timemodel"
	"libra/internal/topology"
	"libra/internal/workload"
)

// Objective selects the optimization scheme (paper §IV-F).
type Objective int

const (
	// PerfOpt maximizes training performance (PerfOptBW).
	PerfOpt Objective = iota
	// PerfPerCostOpt maximizes performance-per-cost (PerfPerCostOptBW).
	PerfPerCostOpt
)

// String names the objective as the paper does.
func (o Objective) String() string {
	switch o {
	case PerfOpt:
		return "PerfOptBW"
	case PerfPerCostOpt:
		return "PerfPerCostOptBW"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Target is one workload in a (possibly multi-workload) optimization, with
// its relative importance weight.
type Target struct {
	Workload *workload.Workload
	Weight   float64 // defaults to 1 when zero
}

// Problem is a LIBRA optimization instance.
type Problem struct {
	Net     *topology.Network
	Targets []Target

	Compute compute.Model
	Loop    timemodel.Loop
	Cost    cost.Table

	Objective Objective

	// BWBudget is the per-NPU total bandwidth in GB/s; both objectives
	// pin ΣB = budget (the paper's iso-resource design points). With a
	// purely bandwidth-bound time model and linear cost, relaxing the
	// equality would let PerfPerCostOpt collapse to arbitrarily small
	// networks, since time×cost is monotone in the overall scale;
	// PerfPerCostOpt instead reallocates the fixed budget toward cheaper
	// tiers. Use SkipBudget + a DollarBudget constraint for iso-cost
	// designs.
	BWBudget float64

	// MinDimBW lower-bounds every dimension (default 0.1 GB/s) so the
	// analytical 1/B terms stay finite.
	MinDimBW float64

	// Constraints holds declarative, serializable design constraints
	// (dimension caps/floors, ordering, pair sums, dollar budgets...)
	// applied on top of the budget row. They survive a Problem →
	// ProblemSpec round-trip.
	Constraints []ConstraintSpec

	// SkipBudget drops the ΣB budget row entirely, leaving only MinDimBW
	// and Constraints. Used for iso-cost designs where the binding
	// constraint is a dollar budget instead of a bandwidth budget.
	SkipBudget bool

	// OptPolicy is the mapping policy the *optimizer* models with.
	// Evaluation always uses the Actual policy. The paper's optimizer
	// behaves like IdealFullDims (see the GPT-3 + 4D-4K anomaly, §VI-A).
	OptPolicy timemodel.MappingPolicy

	// InNetwork marks switch-offloaded dimensions (may be nil).
	InNetwork []bool

	// Solver tunes the optimizer (zero = defaults).
	Solver opt.Options

	// sources records, per target, the declarative origin of the
	// workload (preset name or transformer shape) when one is known, so
	// Spec() can reconstruct a serializable description. ProblemSpec.Build
	// and AddTarget fill it; targets appended to Targets by hand fall back
	// to preset-name matching.
	sources []WorkloadSpec
}

// NewProblem builds a Problem with the paper's defaults: A100 compute,
// Table I costs, the no-overlap training loop, PerfOpt objective, and the
// Actual mapping policy.
func NewProblem(net *topology.Network, budget float64, targets ...*workload.Workload) *Problem {
	p := &Problem{
		Net:      net,
		Compute:  compute.A100(),
		Loop:     timemodel.NoOverlap,
		Cost:     cost.Default(),
		BWBudget: budget,
		MinDimBW: 0.1,
	}
	for _, w := range targets {
		p.AddTarget(w, 1)
	}
	return p
}

// AddTarget appends a weighted target workload, keeping the provenance
// list aligned: preset-named workloads stay serializable, anything else is
// recorded as opaque and rejected by Spec().
func (p *Problem) AddTarget(w *workload.Workload, weight float64) {
	p.Targets = append(p.Targets, Target{Workload: w, Weight: weight})
	src := WorkloadSpec{}
	if w != nil && isPresetWorkload(w.Name) {
		src.Preset = w.Name
	}
	p.sources = append(p.sources, src)
}

// Result is an evaluated bandwidth design point.
type Result struct {
	BW topology.BWConfig `json:"bw"`
	// Times holds per-target iteration times (seconds), evaluated under
	// the Actual mapping policy.
	Times []float64 `json:"times"`
	// WeightedTime is the weight-averaged iteration time.
	WeightedTime float64 `json:"weighted_time"`
	// Cost is the network dollar cost.
	Cost float64 `json:"cost"`
	// Utilization is the average network BW utilization of the first
	// target (Fig. 10's metric).
	Utilization float64 `json:"utilization"`
}

// PerfPerCost returns the performance-per-cost figure 1/(T·C).
func (r Result) PerfPerCost() float64 {
	if r.WeightedTime <= 0 || r.Cost <= 0 {
		return 0
	}
	return 1 / (r.WeightedTime * r.Cost)
}

// MaxConstraints bounds a problem's declarative constraints. Each one is
// a row of the solver's constraint system, and every solver worker's
// projector allocates scratch quadratic in the row count, so an
// unbounded list from a small JSON body could take gigabytes before any
// solve. The bound counts the cap row a frontier cap column appends.
const MaxConstraints = 64

func (p *Problem) validate() error {
	if p.Net == nil {
		return fmt.Errorf("core: problem has no network")
	}
	if len(p.Targets) == 0 {
		return fmt.Errorf("core: problem has no target workloads")
	}
	if err := p.Compute.Validate(); err != nil {
		return err
	}
	if err := p.Cost.Validate(); err != nil {
		return err
	}
	if err := p.checkBudget(p.BWBudget); err != nil {
		return err
	}
	if n := len(p.Constraints); n > MaxConstraints {
		return fmt.Errorf("core: %d constraints exceed the %d-constraint limit", n, MaxConstraints)
	}
	for _, c := range p.Constraints {
		if err := c.Validate(p.Net.NumDims()); err != nil {
			return err
		}
	}
	for _, t := range p.Targets {
		if t.Workload == nil {
			return fmt.Errorf("core: nil target workload")
		}
		if t.Weight < 0 || math.IsNaN(t.Weight) {
			return fmt.Errorf("core: target %s has invalid weight %v", t.Workload.Name, t.Weight)
		}
		if err := t.Workload.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// checkBudget is the one budget check: Build applies it at the spec's
// budget, and every per-budget solve (a column point, SolveBudget) at the
// point's budget. A SkipBudget problem has no ΣB row and accepts any.
func (p *Problem) checkBudget(budget float64) error {
	if p.SkipBudget {
		return nil
	}
	if !(budget > 0) {
		return fmt.Errorf("core: bandwidth budget must be positive, got %v", budget)
	}
	if minBW := p.minDimBW(); minBW*float64(p.Net.NumDims()) > budget {
		return fmt.Errorf("core: budget %v GB/s cannot cover %d dims at the %v GB/s floor",
			budget, p.Net.NumDims(), minBW)
	}
	return nil
}

func (p *Problem) minDimBW() float64 {
	if p.MinDimBW > 0 {
		return p.MinDimBW
	}
	return 0.1
}

func (p *Problem) weight(i int) float64 {
	if w := p.Targets[i].Weight; w > 0 {
		return w
	}
	return 1
}

func (p *Problem) estimator(policy timemodel.MappingPolicy) *timemodel.Estimator {
	return &timemodel.Estimator{
		Net:       p.Net,
		Compute:   p.Compute,
		Loop:      p.Loop,
		Policy:    policy,
		InNetwork: p.InNetwork,
	}
}

// plans compiles every target's time plan under a policy.
func (p *Problem) plans(policy timemodel.MappingPolicy) ([]*timemodel.Plan, error) {
	est := p.estimator(policy)
	plans := make([]*timemodel.Plan, len(p.Targets))
	for i, t := range p.Targets {
		pl, err := est.Compile(t.Workload)
		if err != nil {
			return nil, fmt.Errorf("core: target %s: %w", t.Workload.Name, err)
		}
		plans[i] = pl
	}
	return plans, nil
}

// Evaluator prices bandwidth design points for one validated Problem. It
// validates the problem, compiles every target's Actual-policy time plan,
// and caches the cost rates once at construction, so sweep hot loops pay
// only the analytical model per point instead of re-validating the whole
// problem each call. An Evaluator goes stale if its Problem is mutated.
type Evaluator struct {
	p     *Problem
	plans []*timemodel.Plan
	rates []float64
	wsum  float64
}

// NewEvaluator validates the problem and hoists all per-problem work out
// of the per-point path. Evaluation always uses the Actual mapping policy.
func (p *Problem) NewEvaluator() (*Evaluator, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	plans, err := p.plans(timemodel.Actual)
	if err != nil {
		return nil, err
	}
	rates, err := cost.Rates(p.Cost, p.Net)
	if err != nil {
		return nil, err
	}
	e := &Evaluator{p: p, plans: plans, rates: rates}
	for i := range p.Targets {
		e.wsum += p.weight(i)
	}
	return e, nil
}

// Evaluate prices an explicit bandwidth configuration.
func (e *Evaluator) Evaluate(bw topology.BWConfig) (Result, error) {
	res := Result{BW: bw.Clone(), Times: make([]float64, len(e.plans))}
	for i, pl := range e.plans {
		b, err := pl.Iteration(bw)
		if err != nil {
			return Result{}, fmt.Errorf("core: target %s: %w", e.p.Targets[i].Workload.Name, err)
		}
		res.Times[i] = b.Total
		res.WeightedTime += e.p.weight(i) * b.Total
		if i == 0 {
			res.Utilization = b.AvgUtilization()
		}
	}
	res.WeightedTime /= e.wsum
	for d, r := range e.rates {
		res.Cost += r * bw[d]
	}
	return res, nil
}

// Evaluate prices an explicit bandwidth configuration (Actual policy).
func (p *Problem) Evaluate(bw topology.BWConfig) (Result, error) {
	e, err := p.NewEvaluator()
	if err != nil {
		return Result{}, err
	}
	return e.Evaluate(bw)
}

// EqualBW prices the workload-agnostic baseline at budget: the budget
// split evenly across the network's dimensions.
func (e *Evaluator) EqualBW(budget float64) (Result, error) {
	return e.Evaluate(topology.EqualBW(budget, e.p.Net.NumDims()))
}

// EqualBW evaluates the workload-agnostic baseline: BWBudget split evenly.
func (p *Problem) EqualBW() (Result, error) {
	e, err := p.NewEvaluator()
	if err != nil {
		return Result{}, err
	}
	return e.EqualBW(p.BWBudget)
}

// buildConstraintsAt assembles the solver constraint set from the ΣB row
// pinned to budget and the declarative constraint specs — the only
// per-point rebuild a budget sweep needs.
func (p *Problem) buildConstraintsAt(budget float64) (*opt.Constraints, error) {
	n := p.Net.NumDims()
	c := opt.NewConstraints(n).SetAllLower(p.minDimBW())
	if !p.SkipBudget {
		c.SumEquals(budget)
	}
	for _, spec := range p.Constraints {
		if err := spec.apply(c, p); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Optimize searches for the bandwidth configuration maximizing the
// problem's objective and returns it evaluated under the Actual policy.
func (p *Problem) Optimize() (Result, error) {
	return p.OptimizeContext(context.Background()) //libra:allow ctxflow compat wrapper: context-free entry point deliberately roots here
}

// OptimizeContext is Optimize under a context: the solver polls ctx and
// aborts with its error as soon as it is canceled or times out.
func (p *Problem) OptimizeContext(ctx context.Context) (Result, error) {
	o, err := p.NewOptimizer()
	if err != nil {
		return Result{}, err
	}
	return o.solve(ctx, p.BWBudget, p.Solver)
}

// Optimizer hoists every budget-independent preparation of a Problem out
// of sweep loops: problem validation, the Actual-policy Evaluator (target
// time plans + cost rates), and the optimizer-policy time plans (the
// evaluator's own under the Actual policy). Sweeps that solve one Problem
// at many budgets (the figure sweeps) build one Optimizer and call
// SolveBudget per point, optionally warm-starting each point from its
// neighbor's solution. Every solve, OptimizeContext's included, runs
// through Optimizer.solve, the one place a warm vector enters the solver.
//
// The Optimizer reads p.Objective and p.Solver at each solve (the figure
// sweeps flip the objective between solves of one problem); everything
// else — network, targets, compute/cost models, mapping policy,
// constraint specs — is captured at construction, so mutating those
// fields requires a new Optimizer. Solves may run concurrently on one
// Optimizer (an engine column's abandoned flight and its next point do):
// a solve only reads the problem and the compiled plans, and builds
// its own constraint set and solver state. Mutating the Problem while
// any solve runs is a data race.
type Optimizer struct {
	p     *Problem
	eval  *Evaluator
	plans []*timemodel.Plan
}

// NewOptimizer validates the problem and prepares the per-point solve
// state once.
func (p *Problem) NewOptimizer() (*Optimizer, error) {
	eval, err := p.NewEvaluator()
	if err != nil {
		return nil, err
	}
	return eval.optimizer()
}

// optimizer builds an Optimizer on a prepared evaluator, so a caller that
// already holds one (an engine column) compiles each target once: the
// optimizer prices the evaluator's Actual-policy plans, and compiles its
// own only under another OptPolicy.
func (e *Evaluator) optimizer() (*Optimizer, error) {
	plans := e.plans
	if e.p.OptPolicy != timemodel.Actual {
		var err error
		if plans, err = e.p.plans(e.p.OptPolicy); err != nil {
			return nil, err
		}
	}
	return &Optimizer{p: e.p, eval: e, plans: plans}, nil
}

// Evaluator exposes the hoisted Actual-policy evaluator, so sweeps can
// price baselines (EqualBW points) without re-preparing the problem.
func (o *Optimizer) Evaluator() *Evaluator { return o.eval }

// SolveBudget optimizes with the ΣB row pinned to budget, seeding the
// multistart from warm — a neighboring point's solution, typically scaled
// with ScaleWarmStart — or running cold when warm is nil.
func (o *Optimizer) SolveBudget(ctx context.Context, budget float64, warm []float64) (Result, error) {
	so := o.p.Solver
	so.WarmStart = warm
	return o.solve(ctx, budget, so)
}

// solve runs the multistart at budget. A warm start (solverOpts.WarmStart)
// whose solve fails — a vector of the wrong length, a non-finite entry —
// is solved again cold, so an unusable warm vector never sinks a point.
func (o *Optimizer) solve(ctx context.Context, budget float64, solverOpts opt.Options) (Result, error) {
	p := o.p
	if err := p.checkBudget(budget); err != nil {
		return Result{}, err
	}
	cons, err := p.buildConstraintsAt(budget)
	if err != nil {
		return Result{}, err
	}
	objective, convex := o.objective()
	solverOpts.Convex = convex
	prob := opt.Problem{N: p.Net.NumDims(), Objective: objective, Cons: cons}
	sol, err := opt.MinimizeContext(ctx, prob, solverOpts)
	if err != nil && solverOpts.WarmStart != nil && ctx.Err() == nil {
		solverOpts.WarmStart = nil
		sol, err = opt.MinimizeContext(ctx, prob, solverOpts)
	}
	if err != nil {
		err = fmt.Errorf("core: %s solve failed: %w", p.Objective, err)
		if errors.Is(err, opt.ErrInfeasible) {
			// The spec's constraints leave no allocation: the caller's fault.
			err = fmt.Errorf("%w: %w", ErrBadSpec, err)
		}
		return Result{}, err
	}
	return o.eval.Evaluate(topology.BWConfig(sol.X))
}

// objective returns the function the solver minimizes under the
// problem's current objective — the weighted iteration time, or that
// time multiplied by the network's dollar cost — and whether it is
// convex (only the pure time objective is).
func (o *Optimizer) objective() (f func([]float64) float64, convex bool) {
	p := o.p
	costRates := o.eval.rates
	plans, wsum := o.plans, o.eval.wsum
	weightedTime := func(x []float64) float64 {
		bw := topology.BWConfig(x)
		total := 0.0
		for i, pl := range plans {
			t := pl.Time(bw)
			if math.IsInf(t, 1) || t >= 1e300 {
				return math.Inf(1)
			}
			total += p.weight(i) * t
		}
		return total / wsum
	}
	if p.Objective != PerfPerCostOpt {
		return weightedTime, true
	}
	return func(x []float64) float64 {
		t := weightedTime(x)
		if math.IsInf(t, 1) {
			return t
		}
		dollars := 0.0
		for d, r := range costRates {
			dollars += r * x[d]
		}
		return t * dollars
	}, false
}

// ScaleWarmStart rescales a neighboring design point's bandwidth vector to
// a new budget, preserving the relative allocation: with the ΣB = budget
// row active, scaling by to/from lands exactly on the new budget plane,
// which is what keeps the projected warm start adjacent to the neighbor's
// optimum and lets the adaptive cutoff fire. Returns nil — no warm start —
// unless every scaled entry is finite and positive.
func ScaleWarmStart(bw topology.BWConfig, from, to float64) []float64 {
	if len(bw) == 0 || !(from > 0) || !(to > 0) {
		return nil
	}
	f := to / from
	out := make([]float64, len(bw))
	for i, v := range bw {
		out[i] = v * f
		if !(out[i] > 0) || math.IsInf(out[i], 1) {
			return nil
		}
	}
	return out
}

// EqualBWForCost returns the EqualBW bandwidth per dimension that exactly
// spends a dollar budget on the network (every dimension equal): the
// iso-cost baseline of the Themis case study (§VI-D).
func EqualBWForCost(table cost.Table, net *topology.Network, dollars float64) (topology.BWConfig, error) {
	rates, err := cost.Rates(table, net)
	if err != nil {
		return nil, err
	}
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	if sum <= 0 {
		return nil, fmt.Errorf("core: zero-cost network; cannot derive iso-cost EqualBW")
	}
	per := dollars / sum
	bw := make(topology.BWConfig, net.NumDims())
	for i := range bw {
		bw[i] = per
	}
	return bw, nil
}
