package frontier

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"libra/internal/core"
	"libra/internal/topology"
	"libra/internal/workload"
)

// refPoint is one frontier point solved the per-spec way.
type refPoint struct {
	result      core.Result
	fingerprint string
	cached      bool
	err         string
}

// referenceFrontier solves every point of a frontier as its own spec —
// the base cloned, the budget set, the cap appended, then Build, the warm
// vector attached through Problem.Solver.WarmStart, Fingerprint and
// Problem.OptimizeContext — walking each cap column in ascending budget
// order as Compute does. A fingerprint seen earlier in the frontier is
// answered from that earlier solve and marked cached, as a fresh engine
// would.
func referenceFrontier(t *testing.T, base *core.ProblemSpec, req Request) []refPoint {
	t.Helper()
	budgets, err := req.budgets()
	if err != nil {
		t.Fatal(err)
	}
	caps := req.CapsGBps
	if len(caps) == 0 {
		caps = []float64{0}
	}
	order := make([]int, len(budgets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return budgets[order[a]] < budgets[order[b]] })
	out := make([]refPoint, len(budgets)*len(caps))
	solved := map[string]core.Result{}
	for ci, c := range caps {
		var prev *refPoint
		var prevBudget float64
		for _, bi := range order {
			pt := &out[bi*len(caps)+ci]
			spec := base.Clone()
			spec.BudgetGBps = budgets[bi]
			if req.CapDim > 0 {
				spec.Constraints = append(spec.Constraints, core.DimCap(req.CapDim, c))
			}
			p, err := spec.Build()
			if err != nil {
				pt.err = fmt.Errorf("%w: %w", core.ErrBadSpec, err).Error()
				continue
			}
			if !req.NoWarmStart && prev != nil {
				p.Solver.WarmStart = core.ScaleWarmStart(prev.result.BW, prevBudget, budgets[bi])
			}
			if pt.fingerprint, err = spec.Fingerprint(); err != nil {
				t.Fatal(err)
			}
			if r, ok := solved[pt.fingerprint]; ok {
				pt.result, pt.cached = r, true
			} else if pt.result, err = p.OptimizeContext(context.Background()); err != nil {
				pt.err = err.Error()
				continue
			}
			solved[pt.fingerprint] = pt.result
			prev, prevBudget = pt, budgets[bi]
		}
	}
	return out
}

func jsonOf(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// A frontier solved through engine columns — one build and one compiled
// time model per column — equals the per-spec path point for point:
// results bit for bit, fingerprints, cached flags and error strings,
// over presets × topologies × objectives × cap columns × warm/cold. The
// budget axis holds a point below the 0.1 GB/s floor of every topology
// (0.15 < 0.1 × 2 dims) and a repeated budget.
func TestColumnMatchesPerSpecPath(t *testing.T) {
	budgets := []float64{450, 0.15, 150, 300, 300, 600}
	topos := []string{"2D-4K", "3D-512", "4D-4K"}
	if testing.Short() {
		topos = topos[1:2]
	}
	capAxes := []struct {
		dim  int
		caps []float64
	}{{0, nil}, {1, []float64{40, 120}}}
	for _, preset := range workload.PresetNames() {
		for _, topo := range topos {
			for _, objective := range []string{"perf", "perf-per-cost"} {
				for _, ca := range capAxes {
					for _, noWarm := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/%s/cap%d/nowarm=%v", preset, topo, objective, ca.dim, noWarm)
						t.Run(name, func(t *testing.T) {
							base := &core.ProblemSpec{
								Topology:   topo,
								Workloads:  []core.WorkloadSpec{{Preset: preset}},
								BudgetGBps: 1, // columns open at the axis maximum, not here
								Objective:  objective,
							}
							req := Request{Budgets: budgets, CapDim: ca.dim, CapsGBps: ca.caps, NoWarmStart: noWarm}
							e := core.NewEngine(core.EngineConfig{Workers: 2})
							defer e.Close()
							got, err := Compute(context.Background(), e, base, req)
							if err != nil {
								t.Fatal(err)
							}
							want := referenceFrontier(t, base, req)
							if len(got.Points) != len(want) {
								t.Fatalf("%d points, want %d", len(got.Points), len(want))
							}
							solves, hits := 0, 0
							for i, w := range want {
								g := got.Points[i]
								if g.Error != w.err {
									t.Errorf("point %d (budget %v cap %v): error %q, want %q", i, g.BudgetGBps, g.CapGBps, g.Error, w.err)
									continue
								}
								if w.err != "" {
									continue
								}
								if w.cached {
									hits++
								} else {
									solves++
								}
								if g.Fingerprint != w.fingerprint || g.Cached != w.cached {
									t.Errorf("point %d: fingerprint %s cached %v, want %s %v", i, g.Fingerprint, g.Cached, w.fingerprint, w.cached)
								}
								if gj, wj := jsonOf(t, g.Result), jsonOf(t, w.result); gj != wj {
									t.Errorf("point %d (budget %v cap %v): result\n%s\nwant\n%s", i, g.BudgetGBps, g.CapGBps, gj, wj)
								}
							}
							if got.Solves != solves || got.CacheHits != hits {
								t.Errorf("solves/hits = %d/%d, want %d/%d", got.Solves, got.CacheHits, solves, hits)
							}
						})
					}
				}
			}
		}
	}
}

// Canceling a frontier mid-column abandons the point in flight, whose
// solve may still run on the column's shared Optimizer while the column
// moves on: run under -race, this checks that sharing, and that the
// engine drains every flight.
func TestColumnCancelMidColumn(t *testing.T) {
	e := core.NewEngine(core.EngineConfig{Workers: 2})
	defer e.Close()
	base := &core.ProblemSpec{
		Topology:  "4D-4K",
		Workloads: []core.WorkloadSpec{{Preset: "GPT-3"}, {Preset: "MSFT-1T"}, {Preset: "DLRM"}},
		Objective: "perf-per-cost",
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel as soon as the first point lands: the next point's flight
	// is abandoned and the rest of the column runs on a canceled context.
	pctx := core.WithProgress(ctx, func(p core.Progress) {
		if p.Done >= 1 {
			cancel()
		}
	})
	_, err := Compute(pctx, e, base, Request{BudgetMin: 200, BudgetMax: 800, BudgetSteps: 16, SkipEqualBW: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Compute = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for e.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d flights still running after cancel", e.Stats().InFlight)
		}
		time.Sleep(time.Millisecond)
	}
	// The engine still answers the column's points after the cancel.
	res, err := Compute(context.Background(), e, base, Request{Budgets: []float64{200, 240}, SkipEqualBW: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Error != "" {
			t.Errorf("budget %v after cancel: %v", p.BudgetGBps, p.Error)
		}
	}
}

// Relation R3, budget monotonicity: for perf, more budget never gives a
// slower answer, T*(W2) ≤ T*(W1) for W2 > W1, exactly — the ΣB = W1
// answer scaled by W2/W1 is feasible at W2 and no slower, so a larger
// budget can only help. Checked on warm and cold 24-point frontiers over
// the Table II presets on six Table III topologies.
func TestFrontierBudgetMonotone(t *testing.T) {
	topos := []string{topology.Name2D4K, topology.Name3D512, topology.Name3D1K, topology.Name3D4K, topology.Name4D2K, topology.Name4D4K}
	if testing.Short() {
		topos = topos[:2]
	}
	// One engine per mode: warm state is not fingerprinted, so a shared
	// engine would answer the cold frontiers from the warm ones' cache.
	engines := map[bool]*core.Engine{}
	for _, noWarm := range []bool{false, true} {
		engines[noWarm] = core.NewEngine(core.EngineConfig{Workers: 2})
		defer engines[noWarm].Close()
	}
	for _, topo := range topos {
		for _, preset := range workload.PresetNames() {
			for _, noWarm := range []bool{false, true} {
				e := engines[noWarm]
				base := &core.ProblemSpec{Topology: topo, Workloads: []core.WorkloadSpec{{Preset: preset}}}
				req := Request{BudgetMin: 100, BudgetMax: 1000, BudgetSteps: 24, SkipEqualBW: true, NoWarmStart: noWarm}
				res, err := Compute(context.Background(), e, base, req)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i < len(res.Points); i++ {
					lo, hi := res.Points[i-1], res.Points[i]
					if lo.Error != "" || hi.Error != "" {
						t.Fatalf("%s %s: point failed: %v %v", topo, preset, lo.Error, hi.Error)
					}
					if hi.Result.WeightedTime > lo.Result.WeightedTime {
						t.Errorf("%s %s nowarm=%v: T(%v) = %v > T(%v) = %v", topo, preset, noWarm,
							hi.BudgetGBps, hi.Result.WeightedTime, lo.BudgetGBps, lo.Result.WeightedTime)
					}
				}
			}
		}
	}
}
