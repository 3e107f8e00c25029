package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// Points of one column solved from many goroutines at once share the
// column's lazily prepared Optimizer; each must equal the same spec
// solved alone on a fresh engine. Run with -race.
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
	errs := make([]error, len(budgets))
	var wg sync.WaitGroup
	for i, b := range budgets {
		wg.Add(1)
		go func(i int, b float64) {
			defer wg.Done()
			got[i], errs[i] = col.Optimize(context.Background(), b, nil)
		}(i, b)
	}
	wg.Wait()
	for i, b := range budgets {
		if errs[i] != nil {
			t.Fatalf("budget %v: %v", b, errs[i])
		}
		spec := base.Clone()
		spec.BudgetGBps = b
		fresh := NewEngine(EngineConfig{Workers: 1})
		want, err := fresh.Optimize(context.Background(), spec)
		fresh.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Fingerprint != want.Fingerprint || !reflect.DeepEqual(got[i].Result, want.Result) {
			t.Errorf("budget %v: column %s %+v, per-spec %s %+v", b, got[i].Fingerprint, got[i].Result, want.Fingerprint, want.Result)
		}
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
