package codesign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"libra/internal/core"
	"libra/internal/topology"
	"libra/internal/workload"
)

// tinySpec is a fast end-to-end study: a small transformer on a 32-NPU
// 2D network, solved in milliseconds.
func tinySpec() *Spec {
	return &Spec{
		Base: core.ProblemSpec{
			Topology:   "RI(4)_SW(8)",
			BudgetGBps: 300,
			Workloads: []core.WorkloadSpec{{Transformer: &core.TransformerSpec{
				Name: "tiny", NumLayers: 4, Hidden: 512, SeqLen: 64,
				TP: 4, Minibatch: 8,
			}}},
		},
		TPs: []int{2, 4, 8},
	}
}

func TestResolveErrors(t *testing.T) {
	cases := map[string]*Spec{
		"no workloads": {Base: core.ProblemSpec{Topology: "RI(4)_SW(8)", BudgetGBps: 100}},
		"two workloads": {Base: core.ProblemSpec{Topology: "RI(4)_SW(8)", BudgetGBps: 100,
			Workloads: []core.WorkloadSpec{{Preset: "GPT-3"}, {Preset: "MSFT-1T"}}}},
		"non-transformer preset": {Base: core.ProblemSpec{Topology: "RI(4)_SW(8)", BudgetGBps: 100,
			Workloads: []core.WorkloadSpec{{Preset: "DLRM"}}}},
		"unknown topology": {Base: core.ProblemSpec{Topology: "nope", BudgetGBps: 100,
			Workloads: []core.WorkloadSpec{{Preset: "GPT-3"}}}},
		"preset TP not dividing": {Base: core.ProblemSpec{Topology: "RI(3)_SW(3)", BudgetGBps: 100,
			Workloads: []core.WorkloadSpec{{Preset: "GPT-3"}}}},
		"bad TP candidate":     {Base: tinySpec().Base, TPs: []int{0}},
		"bad PP candidate":     {Base: tinySpec().Base, PPs: []int{-2}},
		"negative microbatch":  {Base: tinySpec().Base, Microbatches: -1},
		"negative budget axis": {Base: tinySpec().Base, Budgets: []float64{-5}},
	}
	for name, spec := range cases {
		if _, _, err := spec.resolve(); err == nil {
			t.Errorf("%s: resolve should fail", name)
		} else if !errors.Is(err, core.ErrBadSpec) {
			t.Errorf("%s: error %v should wrap ErrBadSpec", name, err)
		}
	}
}

func TestEnumerateAutoDivisors(t *testing.T) {
	spec := tinySpec()
	spec.TPs = nil
	m, _, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	cands, skipped, err := spec.enumerate(m)
	if err != nil {
		t.Fatal(err)
	}
	// 32 NPUs → divisors 1,2,4,8,16,32, all feasible without a memory cap.
	if len(cands) != 6 || len(skipped) != 0 {
		t.Fatalf("auto enumeration: %d candidates, %d skipped", len(cands), len(skipped))
	}
	for _, c := range cands {
		if c.strat.NPUs() != 32 {
			t.Errorf("candidate %v does not cover 32 NPUs", c.strat)
		}
		// Global batch 8·8 = 64 held fixed exactly: minibatch·DP = 64.
		if c.minibatch*c.strat.DP != 64 {
			t.Errorf("TP=%d minibatch = %d breaks the fixed global batch", c.strat.TP, c.minibatch)
		}
	}
}

// Strategies whose DP cannot split the global batch exactly are skipped —
// solving them would silently compare different effective batches.
func TestEnumerateGlobalBatchDivisibility(t *testing.T) {
	spec := tinySpec()
	spec.TPs = []int{1, 4} // TP=1 → DP=32; global batch 24 % 32 ≠ 0
	spec.GlobalBatch = 24
	m, _, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	cands, skipped, err := spec.enumerate(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].strat.TP != 4 || cands[0].minibatch != 3 {
		t.Fatalf("candidates = %+v", cands)
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0].Reason, "global batch") {
		t.Fatalf("skipped = %+v", skipped)
	}
	// A global batch the base strategy itself cannot realize is a spec
	// error, not a skip: every speedup is measured against the baseline.
	spec.GlobalBatch = 25
	if _, _, err := spec.resolve(); !errors.Is(err, core.ErrBadSpec) {
		t.Errorf("non-divisible baseline batch error = %v", err)
	}
}

func TestEnumerateSkipsAndReasons(t *testing.T) {
	spec := tinySpec()
	spec.TPs = []int{3, 4} // 3 does not divide 32
	m, _, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	cands, skipped, err := spec.enumerate(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || len(skipped) != 1 {
		t.Fatalf("%d candidates, %d skipped", len(cands), len(skipped))
	}
	if !strings.Contains(skipped[0].Reason, "does not divide") {
		t.Errorf("skip reason = %q", skipped[0].Reason)
	}

	// PP that does not divide the layer count is skipped, not fatal.
	spec = tinySpec()
	spec.TPs = []int{4}
	// PP=8 divides the 32 NPUs (TP=4 → DP=1) but not the 4 layers.
	spec.PPs = []int{1, 8}
	m, _, err = spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	_, skipped, err = spec.enumerate(m)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range skipped {
		found = found || strings.Contains(s.Reason, "pipeline stages")
	}
	if !found {
		t.Errorf("expected a pipeline-stage skip, got %+v", skipped)
	}
}

func TestEnumerateMemoryFilter(t *testing.T) {
	spec := &Spec{
		Base: core.ProblemSpec{
			Topology:   "4D-4K",
			BudgetGBps: 1000,
			Workloads:  []core.WorkloadSpec{{Preset: "MSFT-1T"}},
		},
		TPs:      []int{8, 128},
		MemoryGB: workload.DefaultNPUMemoryGB,
	}
	m, _, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	cands, skipped, err := spec.enumerate(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].strat.TP != 128 {
		t.Fatalf("expected only TP=128 to fit 80 GB, got %+v", cands)
	}
	if len(skipped) != 1 || skipped[0].MemoryGB <= workload.DefaultNPUMemoryGB {
		t.Fatalf("skipped = %+v", skipped)
	}
	if !strings.Contains(skipped[0].Reason, "GB per NPU") {
		t.Errorf("skip reason = %q", skipped[0].Reason)
	}

	// An impossible capacity leaves nothing feasible: a spec error.
	spec.MemoryGB = 0.001
	if _, _, err := spec.enumerate(m); !errors.Is(err, core.ErrBadSpec) {
		t.Errorf("no-candidate error = %v", err)
	}
}

func TestEnumerateCandidateLimit(t *testing.T) {
	spec := tinySpec()
	spec.TPs = nil
	spec.MaxCandidates = 3
	m, _, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := spec.enumerate(m); !errors.Is(err, core.ErrBadSpec) {
		t.Errorf("over-limit enumeration error = %v", err)
	}

	// Candidate and budget limits compose: a study within both individual
	// limits is still rejected when candidates × budgets explodes.
	spec = tinySpec() // 3 candidates
	for i := 0; i < 2000; i++ {
		spec.Budgets = append(spec.Budgets, float64(i+1))
	}
	m, _, err = spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := spec.enumerate(m); !errors.Is(err, core.ErrBadSpec) {
		t.Errorf("candidates×budgets over-limit error = %v", err)
	}
}

// fakeSolver answers candidate specs deterministically from the workload's
// TP degree, and can fail selected degrees — exercising ranking and
// per-candidate error reporting without a real optimizer.
type fakeSolver struct {
	mu       sync.Mutex
	calls    int
	fail     map[int]bool
	failEval map[int]bool // fail only the Evaluate (EqualBW) leg
}

func (f *fakeSolver) time(spec *core.ProblemSpec) (float64, int, error) {
	tr := spec.Workloads[0].Transformer
	if tr == nil {
		return 0, 0, fmt.Errorf("fake: candidate spec carries no transformer")
	}
	if f.fail[tr.TP] {
		return 0, tr.TP, fmt.Errorf("fake: TP=%d diverged", tr.TP)
	}
	// An interior optimum at TP=4.
	d := float64(tr.TP) - 4
	return 1 + d*d, tr.TP, nil
}

func (f *fakeSolver) Column(spec *core.ProblemSpec) (core.Column, error) {
	return fakeColumn{f, spec}, nil
}

// fakeColumn answers every budget of a candidate's column alike.
type fakeColumn struct {
	f    *fakeSolver
	spec *core.ProblemSpec
}

func (c fakeColumn) Optimize(ctx context.Context, budget float64, warm []float64) (core.EngineResult, error) {
	c.f.mu.Lock()
	c.f.calls++
	c.f.mu.Unlock()
	tm, tp, err := c.f.time(c.spec)
	if err != nil {
		return core.EngineResult{}, err
	}
	return core.EngineResult{Result: core.Result{WeightedTime: tm, Cost: float64(tp)},
		Fingerprint: fmt.Sprintf("fake-tp%d", tp)}, nil
}

func (c fakeColumn) Evaluator() (*core.Evaluator, error) {
	return nil, fmt.Errorf("fake: no evaluator")
}

func (c fakeColumn) Evaluate(ctx context.Context, bw topology.BWConfig) (core.EngineResult, error) {
	c.f.mu.Lock()
	c.f.calls++
	c.f.mu.Unlock()
	tm, tp, err := c.f.time(c.spec)
	if err != nil {
		return core.EngineResult{}, err
	}
	if c.f.failEval[tp] {
		return core.EngineResult{}, fmt.Errorf("fake: TP=%d EqualBW unpriceable", tp)
	}
	return core.EngineResult{Result: core.Result{WeightedTime: 2 * tm, Cost: float64(tp)}}, nil
}

// A candidate whose optimize succeeds but whose EqualBW evaluation fails
// is reported as failed, yet the optimize solve it already cost must stay
// in the study's work accounting.
func TestComputeCountsSolvesOnEqualBWFailure(t *testing.T) {
	spec := tinySpec()
	spec.TPs = []int{2, 4}
	fs := &fakeSolver{failEval: map[int]bool{2: true}}
	rep, err := Compute(context.Background(), fs, spec)
	if err != nil {
		t.Fatal(err)
	}
	var failed *Candidate
	for i := range rep.Candidates {
		if rep.Candidates[i].Strategy.TP == 2 {
			failed = &rep.Candidates[i]
		}
	}
	if failed == nil || failed.Error == "" || failed.Fingerprint == "" {
		t.Fatalf("failed candidate = %+v", failed)
	}
	// baseline eval + 2 optimizes + TP=4's EqualBW eval; TP=2's failed
	// eval costs nothing but its optimize is counted.
	if rep.Solves != 4 {
		t.Errorf("solves = %d, want 4", rep.Solves)
	}
}

func TestComputeRankingAndErrors(t *testing.T) {
	spec := tinySpec()
	spec.TPs = []int{2, 4, 8}
	fs := &fakeSolver{fail: map[int]bool{8: true}}
	rep, err := Compute(context.Background(), fs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Candidates) != 3 {
		t.Fatalf("%d candidates", len(rep.Candidates))
	}
	// Ranked ascending by co-designed time, failed candidate last.
	if rep.Candidates[0].Strategy.TP != 4 || rep.Candidates[1].Strategy.TP != 2 {
		t.Errorf("ranking = %v, %v", rep.Candidates[0].Strategy, rep.Candidates[1].Strategy)
	}
	last := rep.Candidates[2]
	if last.Strategy.TP != 8 || !strings.Contains(last.Error, "diverged") {
		t.Errorf("failed candidate = %+v", last)
	}
	best := rep.Best()
	if best == nil || best.Strategy.TP != 4 {
		t.Fatalf("Best = %+v", best)
	}
	// Speedups measured against the baseline (TP=4 strategy on EqualBW,
	// fake time 2·1): best co-designed time 1 → 2×.
	if best.SpeedupVsBaseline != 2 {
		t.Errorf("best speedup = %v", best.SpeedupVsBaseline)
	}
	if best.EqualBWSpeedupVsBaseline != 1 {
		t.Errorf("best EqualBW speedup = %v", best.EqualBWSpeedupVsBaseline)
	}
	if rep.Baseline.Strategy.TP != 4 || rep.Baseline.EqualBW.WeightedTime != 2 {
		t.Errorf("baseline = %+v", rep.Baseline)
	}
	if rep.GlobalBatch != 64 {
		t.Errorf("global batch = %d", rep.GlobalBatch)
	}
}

func TestComputeNilArgs(t *testing.T) {
	if _, err := Compute(context.Background(), nil, tinySpec()); err == nil {
		t.Error("nil solver should error")
	}
	if _, err := Compute(context.Background(), &fakeSolver{}, nil); !errors.Is(err, core.ErrBadSpec) {
		t.Error("nil spec should be a bad-spec error")
	}
}

func TestComputeEndToEndEngine(t *testing.T) {
	engine := core.NewEngine(core.EngineConfig{Workers: 4, CacheSize: 64})
	defer engine.Close()
	spec := tinySpec()
	rep, err := Compute(context.Background(), engine, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Candidates) != 3 || rep.Best() == nil {
		t.Fatalf("candidates = %d, best = %v", len(rep.Candidates), rep.Best())
	}
	for _, c := range rep.Candidates {
		if c.Error != "" {
			t.Fatalf("%s: %v", c.Strategy, c.Error)
		}
		if c.Fingerprint == "" || c.EqualBW == nil || c.MemoryGB <= 0 {
			t.Errorf("candidate %s missing metadata: %+v", c.Strategy, c)
		}
		// The co-designed network must never lose to the strategy's own
		// EqualBW baseline.
		if c.Optimized.WeightedTime > c.EqualBW.WeightedTime*(1+1e-9) {
			t.Errorf("%s: optimized %v slower than EqualBW %v",
				c.Strategy, c.Optimized.WeightedTime, c.EqualBW.WeightedTime)
		}
	}
	for i := 1; i < len(rep.Candidates); i++ {
		if rep.Candidates[i].Optimized.WeightedTime < rep.Candidates[i-1].Optimized.WeightedTime {
			t.Error("candidates not ranked by ascending time")
		}
	}
	// The baseline strategy (TP=4) also appears as a candidate; its
	// EqualBW result must match the report baseline exactly.
	for _, c := range rep.Candidates {
		if c.Strategy == rep.Baseline.Strategy && c.EqualBW.WeightedTime != rep.Baseline.EqualBW.WeightedTime {
			t.Errorf("baseline mismatch: %v vs %v", c.EqualBW.WeightedTime, rep.Baseline.EqualBW.WeightedTime)
		}
	}

	// A repeat study is answered from the fingerprint cache.
	rep2, err := Compute(context.Background(), engine, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Solves != 0 || rep2.CacheHits == 0 {
		t.Errorf("repeat study: %d solves, %d cache hits", rep2.Solves, rep2.CacheHits)
	}
	if rep2.Best().Optimized.WeightedTime != rep.Best().Optimized.WeightedTime {
		t.Error("cached study diverged")
	}
}

func TestComputeBudgetAxis(t *testing.T) {
	engine := core.NewEngine(core.EngineConfig{Workers: 4, CacheSize: 128})
	defer engine.Close()
	spec := tinySpec()
	spec.TPs = []int{2, 4}
	spec.Budgets = []float64{400, 200, 300}
	spec.Base.BudgetGBps = 0 // defaulted to the axis maximum
	rep, err := Compute(context.Background(), engine, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BudgetGBps != 400 {
		t.Errorf("ranking budget = %v, want axis max 400", rep.BudgetGBps)
	}
	if len(rep.Frontier) != 3 {
		t.Fatalf("frontier has %d points", len(rep.Frontier))
	}
	prev := 0.0
	pareto := 0
	for _, p := range rep.Frontier {
		if p.Error != "" {
			t.Fatalf("budget %v: %v", p.BudgetGBps, p.Error)
		}
		if p.BudgetGBps < prev {
			t.Error("frontier not budget-ascending")
		}
		prev = p.BudgetGBps
		if p.Strategy.NPUs() != 32 {
			t.Errorf("frontier point strategy %v", p.Strategy)
		}
		if p.Pareto {
			pareto++
		}
	}
	if pareto == 0 {
		t.Error("no Pareto-marked frontier point")
	}
	// More budget can never slow the best strategy down.
	if first, last := rep.Frontier[0], rep.Frontier[2]; last.Result.WeightedTime > first.Result.WeightedTime*(1+1e-9) {
		t.Errorf("frontier time rose with budget: %v → %v", first.Result.WeightedTime, last.Result.WeightedTime)
	}
}

// columnCounter counts the columns a study opens on its inner solver.
type columnCounter struct {
	inner *core.Engine
	n     atomic.Int64
}

func (c *columnCounter) Column(spec *core.ProblemSpec) (core.Column, error) {
	c.n.Add(1)
	return c.inner.Column(spec)
}

// A study opens each problem once: the baseline's column plus one per
// candidate, whose ranking solve, EqualBW price and budget-axis walk all
// run on it.
func TestComputeOpensOneColumnPerSpec(t *testing.T) {
	engine := core.NewEngine(core.EngineConfig{Workers: 4, CacheSize: 128})
	defer engine.Close()
	spec := tinySpec()
	spec.Budgets = []float64{150, 300}
	cc := &columnCounter{inner: engine}
	rep, err := Compute(context.Background(), cc, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := cc.n.Load(), int64(1+len(rep.Candidates)); got > limit {
		t.Errorf("study opened %d columns, want at most %d (baseline + candidates)", got, limit)
	}
}

func TestComputeCancellation(t *testing.T) {
	engine := core.NewEngine(core.EngineConfig{Workers: 1, CacheSize: -1})
	defer engine.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compute(ctx, engine, tinySpec()); err == nil {
		t.Error("canceled study should fail")
	}
}

func TestSpecCanonicalFingerprint(t *testing.T) {
	a := tinySpec()
	a.TPs = []int{8, 2, 4, 2}
	a.PPs = []int{1}
	a.GlobalBatch = 64 // equals the derived default
	a.MaxCandidates = DefaultMaxCandidates
	a.Budgets = []float64{400, 200}
	b := tinySpec()
	b.TPs = []int{2, 4, 8}
	b.Budgets = []float64{200, 400} // frontier emits budget-ascending either way
	fa, err := core.Digest(a.MarshalCanonical())
	if err != nil {
		t.Fatal(err)
	}
	fb, err := core.Digest(b.MarshalCanonical())
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Error("equivalent spellings should fingerprint identically")
	}
	c := tinySpec()
	c.MemoryGB = 80
	fc, err := core.Digest(c.MarshalCanonical())
	if err != nil {
		t.Fatal(err)
	}
	if fc == fb {
		t.Error("different memory capacity must change the fingerprint")
	}
	bad := tinySpec()
	bad.Base.Workloads = nil
	if _, err := core.Digest(bad.MarshalCanonical()); err == nil {
		t.Error("unresolvable spec should not fingerprint")
	}

	// The microbatch count resolves identically whether it is spelled at
	// the spec level or on the base transformer.
	specLevel := tinySpec()
	specLevel.PPs = []int{2}
	specLevel.Microbatches = 4
	inline := tinySpec()
	inline.PPs = []int{2}
	inline.Base.Workloads[0].Transformer.Microbatches = 4
	fs, err := core.Digest(specLevel.MarshalCanonical())
	if err != nil {
		t.Fatal(err)
	}
	fi, err := core.Digest(inline.MarshalCanonical())
	if err != nil {
		t.Fatal(err)
	}
	if fs != fi {
		t.Error("microbatch spellings should fingerprint identically")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	orig := tinySpec()
	orig.MemoryGB = 80
	orig.Budgets = []float64{100, 200}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.DecodeStrict[Spec](data, "codesign: bad spec")
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Errorf("round trip diverged:\n%s\n%s", data, again)
	}
	if _, err := core.DecodeStrict[Spec]([]byte(`{"base": {}, "bogus": 1}`), "codesign: bad spec"); err == nil {
		t.Error("unknown fields should be rejected")
	}
}

// A budget the constraints cannot meet fails its frontier cells in place,
// even at the axis maximum: unlike a budget below the dimension floors,
// infeasible constraints are a property of the cell, not of the study.
func TestComputeBudgetAxisInfeasibleTopBudget(t *testing.T) {
	engine := core.NewEngine(core.EngineConfig{Workers: 4, CacheSize: 128})
	defer engine.Close()
	spec := tinySpec()
	spec.TPs = []int{2, 4}
	spec.Base.BudgetGBps = 150
	// Caps summing to 200 GB/s: feasible at 150, infeasible at 300.
	spec.Base.Constraints = []core.ConstraintSpec{core.DimCap(1, 100), core.DimCap(2, 100)}
	spec.Budgets = []float64{150, 300}
	rep, err := Compute(context.Background(), engine, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Frontier) != 2 {
		t.Fatalf("frontier has %d points, want 2", len(rep.Frontier))
	}
	if low := rep.Frontier[0]; low.Error != "" {
		t.Errorf("budget 150: %v", low.Error)
	}
	if high := rep.Frontier[1]; high.Error != "codesign: no strategy solved at budget 300" {
		t.Errorf("budget 300: error %q, want no strategy solved", high.Error)
	}
}

// A budget axis whose maximum is below the dimension floors fails the
// study as a bad spec before any candidate is solved: only the baseline
// price runs.
func TestComputeRefusesBudgetAxisBelowFloor(t *testing.T) {
	spec := tinySpec()
	spec.Base.MinDimBW = 100 // 2 dims: a 200 GB/s floor
	spec.Budgets = []float64{50, 150}
	fs := &fakeSolver{}
	_, err := Compute(context.Background(), fs, spec)
	if !errors.Is(err, core.ErrBadSpec) || !strings.Contains(err.Error(), "floor") {
		t.Fatalf("err = %v, want a bad-spec floor error", err)
	}
	if fs.calls != 1 {
		t.Errorf("solver answered %d calls, want only the baseline price", fs.calls)
	}
	spec.Budgets = []float64{50, 200}
	if _, err := Compute(context.Background(), fs, spec); err != nil {
		t.Errorf("axis reaching the floor: %v", err)
	}
}
