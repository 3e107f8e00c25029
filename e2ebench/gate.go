package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"libra/internal/core"
	"libra/internal/frontier"
)

// gate checks every answer of a run. A failed check is a failed
// operation, never a silent pass.
type gate struct {
	p    *plan
	refs map[int][]byte // cell → compact JSON of the library's Result
}

func newGate(p *plan) *gate { return &gate{p: p, refs: map[int][]byte{}} }

// ref is the in-process library answer for a cell (the solver is
// deterministic, so a correct server answer matches it bit for bit).
func (g *gate) ref(ctx context.Context, i int) ([]byte, error) {
	if r, ok := g.refs[i]; ok {
		return r, nil
	}
	pr, err := g.p.cells[i].spec.Build()
	if err != nil {
		return nil, err
	}
	res, err := pr.OptimizeContext(ctx)
	if err != nil {
		return nil, err
	}
	r, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	g.refs[i] = r
	return r, nil
}

func compact(raw json.RawMessage) []byte {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return raw
	}
	return b.Bytes()
}

// engineAnswer is the part of an EngineResult or SweepPoint the gate
// checks; timing fields are ignored.
type engineAnswer struct {
	Result      json.RawMessage `json:"result"`
	Fingerprint string          `json:"fingerprint"`
	Cached      bool            `json:"cached"`
	Error       string          `json:"error"`
}

// checkCaptures verifies every distinct answer of a phase. wantCached is
// the cache flag each optimize cell must report.
func (g *gate) checkCaptures(ctx context.Context, res *loadResult, wantCached bool) {
	for _, c := range res.captures {
		var err error
		switch {
		case c.op.job != nil:
			err = g.checkJob(ctx, c)
		case strings.HasPrefix(c.op.path, "/v1/optimize"):
			var a engineAnswer
			if err = json.Unmarshal(c.body, &a); err == nil {
				err = g.checkCell(ctx, c.op.cells[0], a, wantCached, c.op.verify)
			}
		default:
			var sweep struct {
				Points []engineAnswer `json:"points"`
			}
			if err = json.Unmarshal(c.body, &sweep); err != nil {
				break
			}
			if len(sweep.Points) != len(c.op.cells) {
				err = fmt.Errorf("%d points, want %d", len(sweep.Points), len(c.op.cells))
				break
			}
			for k, pt := range sweep.Points {
				if err = g.checkCell(ctx, c.op.cells[k], pt, wantCached, c.op.verify); err != nil {
					err = fmt.Errorf("point %d: %w", k, err)
					break
				}
			}
		}
		if err != nil {
			for i := 0; i < c.n; i++ {
				res.fail("%s answer: %v", c.op.path, err)
			}
		}
	}
}

func (g *gate) checkCell(ctx context.Context, i int, a engineAnswer, wantCached, verify bool) error {
	if a.Error != "" {
		return fmt.Errorf("cell error %q", a.Error)
	}
	if a.Fingerprint != g.p.cells[i].fp {
		return fmt.Errorf("fingerprint %s, want %s", a.Fingerprint, g.p.cells[i].fp)
	}
	if a.Cached != wantCached {
		return fmt.Errorf("cached = %v, want %v", a.Cached, wantCached)
	}
	if !verify {
		return nil
	}
	want, err := g.ref(ctx, i)
	if err != nil {
		return fmt.Errorf("reference solve: %w", err)
	}
	if got := compact(a.Result); !bytes.Equal(got, want) {
		return fmt.Errorf("result %s differs from the library's %s", got, want)
	}
	return nil
}

// checkJob verifies a finished frontier job: status, fingerprint, every
// point's problem fingerprint, and for sampled jobs every point's result
// against an in-process frontier over a fresh engine.
func (g *gate) checkJob(ctx context.Context, c *capture) error {
	job := c.job
	if job.Status != "done" {
		return fmt.Errorf("job status %q", job.Status)
	}
	if `"`+job.Fingerprint+`"` != c.op.etag {
		return fmt.Errorf("job fingerprint %s, want %s", job.Fingerprint, c.op.etag)
	}
	in := c.op.job
	budgets, err := in.req.BudgetAxis()
	if err != nil {
		return err
	}
	if len(job.Result.Points) != len(budgets) {
		return fmt.Errorf("%d frontier points, want %d", len(job.Result.Points), len(budgets))
	}
	var want *frontier.Result
	if c.op.verify {
		engine := core.NewEngine(core.EngineConfig{})
		defer engine.Close()
		if want, err = frontier.Compute(ctx, engine, in.base, in.req); err != nil {
			return fmt.Errorf("reference frontier: %w", err)
		}
	}
	for k, pt := range job.Result.Points {
		if pt.Error != "" {
			return fmt.Errorf("point %d error %q", k, pt.Error)
		}
		s := in.base.Clone()
		s.BudgetGBps = budgets[k]
		pr, err := s.Build()
		if err != nil {
			return err
		}
		fp, err := pr.Fingerprint()
		if err != nil {
			return err
		}
		if pt.BudgetGBps != budgets[k] || pt.Fingerprint != fp {
			return fmt.Errorf("point %d: budget %v fingerprint %s, want %v %s", k, pt.BudgetGBps, pt.Fingerprint, budgets[k], fp)
		}
		if want != nil {
			ref, err := json.Marshal(want.Points[k].Result)
			if err != nil {
				return err
			}
			if got := compact(pt.Result); !bytes.Equal(got, ref) {
				return fmt.Errorf("point %d result %s differs from the library's %s", k, got, ref)
			}
		}
	}
	return nil
}

// referenceSpec is the paper's anchor: GPT-3 on 4D-4K at 500 GB/s.
var referenceSpec = []byte(`{"topology":"4D-4K","workloads":[{"preset":"GPT-3"}],"budget_gbps":500,"objective":"perf"}`)

// checkReferenceValues verifies a GPT-3@4D-4K/500 answer against the
// published reference: BW [340.62 84.78 56.39 18.21] GB/s, 21.374228 s.
func checkReferenceValues(bw []float64, weightedTime float64) error {
	want := []float64{340.62, 84.78, 56.39, 18.21}
	if len(bw) != len(want) {
		return fmt.Errorf("reference BW %v, want %v", bw, want)
	}
	for i, w := range want {
		if math.Round(bw[i]*100)/100 != w {
			return fmt.Errorf("reference BW %.2f, want %v", bw, want)
		}
	}
	if t := math.Round(weightedTime*1e6) / 1e6; t != 21.374228 {
		return fmt.Errorf("reference iteration %.6f s, want 21.374228 s", weightedTime)
	}
	return nil
}

// checkLibraryReference runs the reference problem in-process.
func checkLibraryReference(ctx context.Context) error {
	spec, err := core.ParseSpec(referenceSpec)
	if err != nil {
		return err
	}
	pr, err := spec.Build()
	if err != nil {
		return err
	}
	r, err := pr.OptimizeContext(ctx)
	if err != nil {
		return err
	}
	return checkReferenceValues(r.BW, r.WeightedTime)
}

// shape is the counter-delta view of a timed phase.
type shape struct {
	solves, lruHits, lruMisses, storeHits, jobs float64
}

func shapeOf(before, after map[string]float64) shape {
	d := func(name string) float64 { return sumSeries(after, name) - sumSeries(before, name) }
	return shape{
		solves:    d("libra_solver_solves_total"),
		lruHits:   d("libra_engine_cache_hits_total"),
		lruMisses: d("libra_engine_cache_misses_total"),
		storeHits: d("libra_store_hits_total"),
		jobs:      d("libra_jobs_submitted_total"),
	}
}

// checkShape enforces that the phase exercised the path the workload is
// named for: each violation is one failed operation.
func checkShape(name string, s shape, p *plan, res *loadResult) {
	requests := float64(p.requests())
	switch name {
	case "cold-solve":
		if s.solves != requests {
			res.fail("shape: %v solves for %v requests, want one each", s.solves, requests)
		}
		if s.lruHits != 0 || s.storeHits != 0 {
			res.fail("shape: %v LRU and %v store hits, want none", s.lruHits, s.storeHits)
		}
	case "hot-sweeps":
		if s.solves != 0 {
			res.fail("shape: %v solves, want 0", s.solves)
		}
		if s.lruMisses != 0 || s.lruHits == 0 {
			res.fail("shape: LRU %v hits / %v misses, want hit ratio 1", s.lruHits, s.lruMisses)
		}
	case "disk-restart":
		if s.solves != 0 {
			res.fail("shape: %v solves on stored cells, want 0", s.solves)
		}
		if s.lruMisses == 0 || s.storeHits != s.lruMisses {
			res.fail("shape: %v LRU misses but %v store hits, want every miss read from the store", s.lruMisses, s.storeHits)
		}
	case "study-jobs":
		if s.jobs != requests {
			res.fail("shape: %v jobs submitted, want %v", s.jobs, requests)
		}
		if s.solves == 0 {
			res.fail("shape: no solves")
		}
	}
}
