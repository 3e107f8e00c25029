package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"libra/internal/topology"
)

// Points of one column solved, and allocations priced, from many
// goroutines at once share the column's lazily prepared Optimizer and
// Evaluator; each must equal the same spec solved or priced alone on a
// fresh engine. Run with -race.
func TestColumnConcurrentPoints(t *testing.T) {
	base := &ProblemSpec{
		Topology:   "4D-4K",
		Workloads:  []WorkloadSpec{{Preset: "GPT-3"}, {Preset: "DLRM", Weight: 2}},
		BudgetGBps: 800,
		Objective:  "perf-per-cost",
	}
	budgets := []float64{200, 250, 300, 350, 400, 500, 600, 800}
	e := NewEngine(EngineConfig{Workers: 4})
	defer e.Close()
	col, err := e.Column(base)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]EngineResult, len(budgets))
	priced := make([]EngineResult, len(budgets))
	errs := make([]error, 2*len(budgets))
	var wg sync.WaitGroup
	for i, b := range budgets {
		wg.Add(2)
		go func(i int, b float64) {
			defer wg.Done()
			got[i], errs[i] = col.Optimize(context.Background(), b, nil)
		}(i, b)
		go func(i int, b float64) {
			defer wg.Done()
			priced[i], errs[len(budgets)+i] = col.Evaluate(context.Background(), topology.EqualBW(b, 4))
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range budgets {
		spec := base.Clone()
		spec.BudgetGBps = b
		fresh := NewEngine(EngineConfig{Workers: 1})
		want, err := fresh.Optimize(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		wantPrice, err := fresh.Evaluate(context.Background(), base, topology.EqualBW(b, 4))
		fresh.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Fingerprint != want.Fingerprint || !reflect.DeepEqual(got[i].Result, want.Result) {
			t.Errorf("budget %v: column %s %+v, per-spec %s %+v", b, got[i].Fingerprint, got[i].Result, want.Fingerprint, want.Result)
		}
		if priced[i].Fingerprint != wantPrice.Fingerprint || !reflect.DeepEqual(priced[i].Result, wantPrice.Result) {
			t.Errorf("EqualBW(%v): column %s %+v, per-spec %s %+v", b, priced[i].Fingerprint, priced[i].Result, wantPrice.Fingerprint, wantPrice.Result)
		}
	}
	if again, err := col.Evaluate(context.Background(), topology.EqualBW(budgets[0], 4)); err != nil || !again.Cached {
		t.Errorf("repeated price: cached %v, err %v", again.Cached, err)
	}
}

// A column point below the dimension floor fails with ErrBadSpec and the
// message Build gives for the spec at that budget, and solves nothing.
func TestColumnBudgetCheckMatchesBuild(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 1})
	defer e.Close()
	col, err := e.Column(smallSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []float64{0, -1, 0.15} {
		_, err := col.Optimize(context.Background(), b, nil)
		_, buildErr := smallSpec(b).Build()
		if !errors.Is(err, ErrBadSpec) || buildErr == nil || err.Error() != "core: invalid problem spec: "+buildErr.Error() {
			t.Errorf("budget %v: column error %v, Build error %v", b, err, buildErr)
		}
	}
	if s := e.Stats(); s.Misses != 0 {
		t.Errorf("rejected budgets reached the cache: %+v", s)
	}
}
