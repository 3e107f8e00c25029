package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"libra/internal/opt"
	"libra/internal/topology"
)

// smallSpec is a fast-solving instance for engine tests.
func smallSpec(budget float64) *ProblemSpec {
	return &ProblemSpec{
		Topology:   "RI(4)_SW(8)",
		Workloads:  []WorkloadSpec{{Preset: "Turing-NLG"}},
		BudgetGBps: budget,
		Solver:     &SolverSpec{Starts: 1, MaxIters: 50},
	}
}

func TestEngineCacheHitMiss(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 2, CacheSize: 8})
	defer e.Close()
	ctx := context.Background()

	r1, err := e.Optimize(ctx, smallSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("first solve reported cached")
	}
	// The identical spec — even respelled — must hit.
	respelled := smallSpec(300)
	respelled.Objective = "perf"
	start := time.Now()
	r2, err := e.Optimize(ctx, respelled)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("repeat solve missed the cache")
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("cache hit took %v; want sub-millisecond-class latency", elapsed)
	}
	if r2.Result.WeightedTime != r1.Result.WeightedTime {
		t.Errorf("cached result differs: %v vs %v", r2.Result.WeightedTime, r1.Result.WeightedTime)
	}
	// A different budget must miss.
	r3, err := e.Optimize(ctx, smallSpec(400))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Error("different spec reported cached")
	}
	s := e.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Errorf("stats = %+v; want 1 hit, 2 misses", s)
	}
}

func TestEngineEvaluateCacheKeyIncludesBW(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 2, CacheSize: 8})
	defer e.Close()
	ctx := context.Background()
	spec := smallSpec(300)

	a, err := e.Evaluate(ctx, spec, topology.EqualBW(300, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Evaluate(ctx, spec, topology.BWConfig{200, 100})
	if err != nil {
		t.Fatal(err)
	}
	if b.Cached {
		t.Error("distinct bandwidth vector hit the cache")
	}
	if a.Result.WeightedTime == b.Result.WeightedTime {
		t.Error("distinct bandwidth vectors priced identically; key collision?")
	}
	c, err := e.Evaluate(ctx, spec, topology.EqualBW(300, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Cached {
		t.Error("repeat evaluate missed the cache")
	}
}

// Hammer one engine from many goroutines over overlapping specs; run
// under -race this doubles as the concurrency-safety check.
func TestEngineConcurrentSafety(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 4, CacheSize: 4})
	defer e.Close()
	ctx := context.Background()
	budgets := []float64{200, 300, 400}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				r, err := e.Optimize(ctx, smallSpec(budgets[(g+i)%len(budgets)]))
				if err != nil {
					errs <- err
					return
				}
				if r.Result.WeightedTime <= 0 {
					errs <- errors.New("non-positive iteration time")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Hits+s.Misses == 0 || s.InFlight != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// A sweep whose axes multiply past MaxPoints is a client error, rejected
// before any cell is cloned or solved; an empty axis counts as one value
// (the base spec's). Within the bound the sweep runs every cell: under a
// cancelled context each cell fails fast with the context's error.
func TestSweepBoundsPointsBeforeWork(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 1, CacheSize: 8})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	axis := func(n int) []float64 {
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(100 + i)
		}
		return b
	}
	for _, tc := range []struct {
		name    string
		req     SweepRequest
		points  int
		wantBad bool
	}{
		{"at the bound", SweepRequest{Topologies: []string{"RI(4)_SW(8)", "3D-512"}, Budgets: axis(1024), Objectives: []string{"perf", "perf-per-cost"}}, MaxPoints, false},
		{"bound + 1", SweepRequest{Budgets: axis(MaxPoints + 1)}, MaxPoints + 1, true},
		{"empty topology axis, at the bound", SweepRequest{Budgets: axis(MaxPoints / 2), Objectives: []string{"perf", "perf-per-cost"}}, MaxPoints, false},
		{"empty objective axis, over the bound", SweepRequest{Topologies: []string{"RI(4)_SW(8)", "3D-512", "4D-4K"}, Budgets: axis(MaxPoints/3 + 1)}, 3 * (MaxPoints/3 + 1), true},
		{"every axis empty", SweepRequest{}, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			points, err := e.Sweep(ctx, smallSpec(300), tc.req)
			if tc.wantBad {
				if !errors.Is(err, ErrBadSpec) || points != nil {
					t.Fatalf("%d points: got %d points, err %v; want ErrBadSpec and no points", tc.points, len(points), err)
				}
				if want := fmt.Sprintf("%d points exceeds the %d-point limit", tc.points, MaxPoints); !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
				return
			}
			if errors.Is(err, ErrBadSpec) || len(points) != tc.points {
				t.Fatalf("got %d points, err %v; want %d points", len(points), err, tc.points)
			}
		})
	}
}

func TestEngineOptimizeAndSweep(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 4, CacheSize: 32})
	defer e.Close()
	ctx := context.Background()

	if _, err := e.Optimize(ctx, smallSpec(300)); err != nil {
		t.Fatalf("good spec failed: %v", err)
	}
	if _, err := e.Optimize(ctx, &ProblemSpec{Topology: "bogus"}); err == nil {
		t.Fatal("bogus spec succeeded")
	}

	points, err := e.Sweep(ctx, smallSpec(300), SweepRequest{Budgets: []float64{200, 300, 400}})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d sweep points", len(points))
	}
	for _, pt := range points {
		if pt.Error != "" {
			t.Fatalf("sweep point @%v: %v", pt.BudgetGBps, pt.Error)
		}
		if pt.Result.BW.Total() < pt.BudgetGBps*0.99 {
			t.Errorf("sweep point @%v spent only %v GB/s", pt.BudgetGBps, pt.Result.BW.Total())
		}
	}
	// The 300 GB/s cell was pre-warmed by Optimize above.
	found := false
	for _, pt := range points {
		if pt.BudgetGBps == 300 && pt.Cached {
			found = true
		}
	}
	if !found {
		t.Error("sweep did not reuse the cached 300 GB/s solve")
	}
}

// slowSolveSpec is a perf-per-cost problem sized to keep the solver busy
// for about a second on two cores: a 7D network, 36 weighted targets, and
// an exact tolerance that runs every Nelder-Mead polish to its iteration
// cap. A small perf-per-cost solve finishes in milliseconds, and more
// starts do not help (the seed generator stops adding random starts at
// ~87 for the default seed), so the length comes from pricing and polish.
func slowSolveSpec() *ProblemSpec {
	var ws []WorkloadSpec
	for i := 0; i < 12; i++ {
		for _, name := range []string{"GPT-3", "MSFT-1T", "Turing-NLG"} {
			ws = append(ws, WorkloadSpec{Preset: name, Weight: 1 + float64(i)/12})
		}
	}
	return &ProblemSpec{
		Topology:   "RI(2)_RI(2)_FC(8)_RI(2)_RI(2)_SW(4)_SW(8)",
		Workloads:  ws,
		BudgetGBps: 500,
		Objective:  "perf-per-cost",
		Solver:     &SolverSpec{Starts: 64, MaxIters: 5000, Tol: opt.TolExact},
	}
}

// A long solve must stop promptly when its context is canceled.
func TestOptimizeContextCancellation(t *testing.T) {
	p, err := slowSolveSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = p.OptimizeContext(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v; solver is not polling the context", elapsed)
	}
}

// Engine.Optimize must propagate a waiting caller's cancellation.
func TestEngineCancellationWhileWaiting(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 1, CacheSize: 8})
	defer e.Close()
	spec := slowSolveSpec()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.Optimize(ctx, spec)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("engine held the caller %v past its deadline", elapsed)
	}
}
