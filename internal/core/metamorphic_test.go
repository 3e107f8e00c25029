package core

import (
	"math"
	"testing"

	"libra/internal/topology"
	"libra/internal/workload"
)

// metamorphicTopologies are the Table III topologies the metamorphic
// relations run on (the same six as frontier's R3 check).
var metamorphicTopologies = []string{
	topology.Name2D4K, topology.Name3D512, topology.Name3D1K,
	topology.Name3D4K, topology.Name4D2K, topology.Name4D4K,
}

func mustOptimize(t *testing.T, spec *ProblemSpec) Result {
	t.Helper()
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Optimize()
	if err != nil {
		t.Fatalf("%s %s @%v: %v", spec.Topology, spec.Objective, spec.BudgetGBps, err)
	}
	return r
}

// Relation R2, weight scaling: multiplying every target weight by c
// leaves the answer unchanged. Result.WeightedTime is a weight-averaged
// time (Σ w·T / Σ w), so it does not scale with c either. For a power of
// two c every weighted sum scales exactly in IEEE arithmetic and the
// division cancels it, so the solver walks the same iterates: BW and
// WeightedTime must match bit for bit, with no tolerance.
func TestWeightScalingLeavesAnswer(t *testing.T) {
	topos := metamorphicTopologies
	if testing.Short() {
		topos = topos[:2]
	}
	spec := func(topo, objective string, budget, c float64) *ProblemSpec {
		return &ProblemSpec{
			Topology:   topo,
			BudgetGBps: budget,
			Objective:  objective,
			Workloads:  []WorkloadSpec{{Preset: "GPT-3", Weight: 1 * c}, {Preset: "DLRM", Weight: 3 * c}},
		}
	}
	cases := 0
	for _, topo := range topos {
		for _, objective := range []string{"perf", "perf-per-cost"} {
			for _, budget := range []float64{250, 500} {
				want := mustOptimize(t, spec(topo, objective, budget, 1))
				for _, c := range []float64{0.5, 2, 4} {
					got := mustOptimize(t, spec(topo, objective, budget, c))
					cases++
					same := len(got.BW) == len(want.BW) &&
						math.Float64bits(got.WeightedTime) == math.Float64bits(want.WeightedTime)
					for d := 0; same && d < len(got.BW); d++ {
						same = math.Float64bits(got.BW[d]) == math.Float64bits(want.BW[d])
					}
					if !same {
						t.Errorf("%s %s @%v, weights ×%v: BW %v T %v, want BW %v T %v",
							topo, objective, budget, c, got.BW, got.WeightedTime, want.BW, want.WeightedTime)
					}
				}
			}
		}
	}
	t.Logf("R2 held on %d cases", cases)
}

// Relation R4, cross-objective: the perf answer and the EqualBW split
// both satisfy the perf-per-cost problem's constraints, so the
// perf-per-cost answer's dollar·seconds (WeightedTime·Cost, the value it
// minimizes) is no larger than either's at the optimum. The solver stops
// a search once its relative improvement falls below its default Tol of
// 1e-9, so without an optimality certificate an answer is held to that
// margin, not to zero: 2D-4K ResNet-50 at 500 GB/s returns T·C 8.6e-12
// relative above the perf answer's.
func TestPerfPerCostBeatsPerfAndEqualBW(t *testing.T) {
	const tol = 1e-9 // opt.Options' default Tol
	topos := metamorphicTopologies
	if testing.Short() {
		topos = topos[:2]
	}
	pairs, worst := 0, 0.0
	for _, topo := range topos {
		for _, preset := range workload.PresetNames() {
			for _, budget := range []float64{250, 500, 1000} {
				spec := &ProblemSpec{Topology: topo, BudgetGBps: budget, Workloads: []WorkloadSpec{{Preset: preset}}}
				spec.Objective = "perf"
				perf := mustOptimize(t, spec)
				spec.Objective = "perf-per-cost"
				ppc := mustOptimize(t, spec)
				p, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				eq, err := p.EqualBW()
				if err != nil {
					t.Fatal(err)
				}
				got := ppc.WeightedTime * ppc.Cost
				for _, ref := range []struct {
					name string
					r    Result
				}{{"perf", perf}, {"EqualBW", eq}} {
					pairs++
					v := ref.r.WeightedTime * ref.r.Cost
					worst = math.Max(worst, (got-v)/v)
					if got > v*(1+tol) {
						t.Errorf("%s %s @%v: perf-per-cost T·C %v > %s T·C %v", topo, preset, budget, got, ref.name, v)
					}
				}
			}
		}
	}
	t.Logf("R4 checked on %d pairs; largest relative excess %.3g", pairs, worst)
}
