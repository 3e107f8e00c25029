package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
)

// Column is one built problem solved at many budgets: a frontier column,
// or a single spec as a column of one point (Engine.Optimize). Opening a
// column builds and validates its spec once; each point then differs
// only by its budget and warm start. Implementations must be safe for
// concurrent use.
type Column interface {
	// Optimize solves the column's problem with the ΣB row pinned to
	// budget, seeding the multistart from warm (nil solves cold). A
	// budget the problem cannot take fails with ErrBadSpec and the
	// message Build gives for a spec at that budget.
	Optimize(ctx context.Context, budget float64, warm []float64) (EngineResult, error)
	// Evaluator prices design points of the column's problem (budget-
	// and constraint-independent, like every Evaluator).
	Evaluator() (*Evaluator, error)
}

// column is the Engine's Column. Its points run through the same
// machinery as every engine solve — LRU, disk store, single-flight,
// worker pool, the "engine:optimize" span — under the fingerprint the
// spec would have at the point's budget. A miss solves on one Optimizer
// prepared on the column's first miss, so a column answered entirely
// from cache compiles nothing.
type column struct {
	e *Engine
	p *Problem
	// canon is p's canonical spec; a point's fingerprint digests it with
	// only BudgetGBps replaced.
	canon *ProblemSpec

	evalOnce sync.Once
	eval     *Evaluator
	evalErr  error
	optOnce  sync.Once
	opt      *Optimizer
	optErr   error
}

// Column builds the spec once — validating it at its own budget, so a
// frontier opens its columns at the largest budget of its axis — and
// derives its canonical spec once. Build failures are the caller's fault
// (ErrBadSpec).
func (e *Engine) Column(spec *ProblemSpec) (Column, error) {
	p, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	canon, err := p.Spec()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	return &column{e: e, p: p, canon: canon}, nil
}

func (c *column) Optimize(ctx context.Context, budget float64, warm []float64) (EngineResult, error) {
	if err := c.p.checkBudget(budget); err != nil {
		return EngineResult{}, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	canon := c.canon
	if budget != canon.BudgetGBps {
		at := *canon
		at.BudgetGBps = budget
		canon = &at
	}
	fp, err := Digest(json.Marshal(canon))
	if err != nil {
		return EngineResult{}, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	return c.e.doResult(ctx, "optimize|"+fp, fp, func(ctx context.Context) (Result, error) {
		o, err := c.optimizer()
		if err != nil {
			return Result{}, err
		}
		return o.SolveBudget(ctx, budget, warm)
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
