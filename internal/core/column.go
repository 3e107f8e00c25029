package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"libra/internal/topology"
)

// Column is one built problem solved at many budgets and priced at many
// allocations: a frontier column, a study's candidate or job, or a single
// spec as a column of one point (Engine.Optimize, Engine.Evaluate).
// Opening a column builds and validates its spec once; each point then
// differs only by its budget and warm start, each price only by its
// allocation. Implementations must be safe for concurrent use.
type Column interface {
	// Optimize solves the column's problem with the ΣB row pinned to
	// budget, seeding the multistart from warm (nil solves cold). A
	// budget the problem cannot take fails with ErrBadSpec and the
	// message Build gives for a spec at that budget.
	Optimize(ctx context.Context, budget float64, warm []float64) (EngineResult, error)
	// Evaluate prices an explicit allocation of the column's problem,
	// cached under the spec's fingerprint at the column's own budget.
	Evaluate(ctx context.Context, bw topology.BWConfig) (EngineResult, error)
	// Evaluator prices design points of the column's problem (budget-
	// and constraint-independent, like every Evaluator).
	Evaluator() (*Evaluator, error)
}

// column is the Engine's Column. Its points and prices run through the
// same machinery as every engine call — LRU, disk store, single-flight,
// worker pool, the "engine:optimize"/"engine:evaluate" spans — under the
// fingerprint the spec would have at the point's budget. A miss solves
// on one Optimizer, and prices on one Evaluator, prepared on the
// column's first miss, so a column answered entirely from cache
// prepares nothing.
type column struct {
	e *Engine
	p *Problem
	// canon is p's canonical spec and fp its digest, the spec's
	// fingerprint; a point at another budget digests canon with only
	// BudgetGBps replaced.
	canon *ProblemSpec
	fp    string

	evalOnce sync.Once
	eval     *Evaluator
	evalErr  error
	optOnce  sync.Once
	opt      *Optimizer
	optErr   error
}

// Column builds the spec once — validating it at its own budget, so a
// frontier opens its columns at the largest budget of its axis — and
// derives its canonical spec and fingerprint once. Build failures are
// the caller's fault (ErrBadSpec).
func (e *Engine) Column(spec *ProblemSpec) (Column, error) {
	p, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	canon, err := p.Spec()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	fp, err := Digest(json.Marshal(canon))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	return &column{e: e, p: p, canon: canon, fp: fp}, nil
}

func (c *column) Optimize(ctx context.Context, budget float64, warm []float64) (EngineResult, error) {
	if err := c.p.checkBudget(budget); err != nil {
		return EngineResult{}, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	fp := c.fp
	if budget != c.canon.BudgetGBps {
		at := *c.canon
		at.BudgetGBps = budget
		var err error
		if fp, err = Digest(json.Marshal(&at)); err != nil {
			return EngineResult{}, fmt.Errorf("%w: %w", ErrBadSpec, err)
		}
	}
	return c.e.doResult(ctx, "optimize|"+fp, fp, func(ctx context.Context) (Result, error) {
		o, err := c.optimizer()
		if err != nil {
			return Result{}, err
		}
		return o.SolveBudget(ctx, budget, warm)
	})
}

func (c *column) Evaluate(ctx context.Context, bw topology.BWConfig) (EngineResult, error) {
	if err := bw.Validate(c.p.Net); err != nil {
		return EngineResult{}, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	key := append([]byte("evaluate|"), c.fp...)
	for _, v := range bw {
		key = strconv.AppendFloat(append(key, '|'), v, 'g', 17, 64)
	}
	return c.e.doResult(ctx, string(key), c.fp, func(ctx context.Context) (Result, error) {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("core: evaluate canceled: %w", err)
		}
		ev, err := c.Evaluator()
		if err != nil {
			return Result{}, err
		}
		return ev.Evaluate(bw)
	})
}

func (c *column) Evaluator() (*Evaluator, error) {
	c.evalOnce.Do(func() { c.eval, c.evalErr = c.p.NewEvaluator() })
	return c.eval, c.evalErr
}

// optimizer prepares the column's Optimizer on first use, on top of its
// Evaluator.
func (c *column) optimizer() (*Optimizer, error) {
	c.optOnce.Do(func() {
		var ev *Evaluator
		if ev, c.optErr = c.Evaluator(); c.optErr == nil {
			c.opt, c.optErr = ev.optimizer()
		}
	})
	return c.opt, c.optErr
}
