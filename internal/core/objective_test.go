package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"libra/internal/collective"
	"libra/internal/timemodel"
	"libra/internal/topology"
	"libra/internal/workload"
)

// objectiveMixes are the target mixes the objective bit-identity test
// prices: every Table II preset alone, the weighted transformer mix of
// the cold-solve benchmark, and all five presets weighted.
var objectiveMixes = []struct {
	presets []string
	weights []float64
}{
	{[]string{"GPT-3"}, []float64{1}},
	{[]string{"Turing-NLG"}, []float64{1}},
	{[]string{"MSFT-1T"}, []float64{1}},
	{[]string{"DLRM"}, []float64{1}},
	{[]string{"ResNet-50"}, []float64{1}},
	{[]string{"GPT-3", "Turing-NLG", "MSFT-1T"}, []float64{1.187, 0.734, 0.912}},
	{[]string{"GPT-3", "Turing-NLG", "MSFT-1T", "DLRM", "ResNet-50"}, []float64{1, 0.5, 2, 0.75, 1.25}},
}

// objectiveReference returns the evaluator that prices the optimizer's
// own plans: the problem's Evaluator under the Actual policy, and the
// same targets, weights and cost rates over the optimizer-policy plans
// otherwise.
func objectiveReference(o *Optimizer) *Evaluator {
	ref := *o.eval
	ref.plans = o.plans
	return &ref
}

// checkObjectiveBits prices n seeded valid vectors spanning four decades
// with the optimizer's perf and perf-per-cost objectives and fails unless
// each equals the reference evaluator's WeightedTime, and WeightedTime ×
// Cost, bit for bit.
func checkObjectiveBits(t *testing.T, name string, p *Problem, rng *rand.Rand, n int) {
	t.Helper()
	o, err := p.NewOptimizer()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref := objectiveReference(o)
	p.Objective = PerfOpt
	perf, _ := o.objective()
	p.Objective = PerfPerCostOpt
	ppc, _ := o.objective()
	bw := make(topology.BWConfig, p.Net.NumDims())
	for k := 0; k < n; k++ {
		for d := range bw {
			bw[d] = math.Pow(10, -1+4*rng.Float64())
		}
		r, err := ref.Evaluate(bw)
		if err != nil {
			t.Fatalf("%s at %v: %v", name, bw, err)
		}
		if got := perf(bw); math.Float64bits(got) != math.Float64bits(r.WeightedTime) {
			t.Fatalf("%s at %v: perf objective %v, Evaluate WeightedTime %v", name, bw, got, r.WeightedTime)
		}
		if got, want := ppc(bw), r.WeightedTime*r.Cost; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s at %v: perf-per-cost objective %v, Evaluate WeightedTime×Cost %v", name, bw, got, want)
		}
	}
}

// TestObjectiveMatchesEvaluateBits checks that the objective the solver
// minimizes — one weighted pricing kernel over interned plans — is
// exactly what evaluation reports for the same vector, over the preset
// mixes × four fabrics × both loops × both mapping policies × with and
// without last-dimension in-network offload, at 200 seeded vectors each.
func TestObjectiveMatchesEvaluateBits(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	combos := 0
	for _, tn := range []string{topology.Name2D4K, "3D-1K", "3D-4K", "4D-4K"} {
		net, err := topology.Preset(tn)
		if err != nil {
			t.Fatal(err)
		}
		lastDim := make([]bool, net.NumDims())
		lastDim[len(lastDim)-1] = true
	mixes:
		for _, mix := range objectiveMixes {
			var ws []*workload.Workload
			for _, name := range mix.presets {
				w, err := workload.Preset(name, net.NPUs())
				if err != nil {
					continue mixes // the preset does not fit this NPU count
				}
				ws = append(ws, w)
			}
			for _, loop := range []timemodel.Loop{timemodel.NoOverlap, timemodel.TPDPOverlap} {
				for _, policy := range []timemodel.MappingPolicy{timemodel.Actual, timemodel.IdealFullDims} {
					for _, offload := range [][]bool{nil, lastDim} {
						p := NewProblem(net, 500)
						for i, w := range ws {
							p.AddTarget(w, mix.weights[i])
						}
						p.Loop, p.OptPolicy, p.InNetwork = loop, policy, offload
						if _, err := p.NewOptimizer(); err != nil {
							continue // a strategy that does not map onto this network
						}
						combos++
						name := fmt.Sprintf("%v on %s (%v, policy %d, offload %v)", mix.presets, tn, loop, policy, offload)
						checkObjectiveBits(t, name, p, rng, 200)
					}
				}
			}
		}
	}
	if combos < 150 {
		t.Fatalf("only %d mix × topology × loop × policy × offload combinations priced", combos)
	}
	t.Logf("%d combinations", combos)
}

// TestObjectiveInvalidVectorsAreInf checks that a vector of the wrong
// length, or with a zero, negative, NaN or infinite entry, prices at
// +Inf under both objectives.
func TestObjectiveInvalidVectorsAreInf(t *testing.T) {
	net := topology.FourD4K()
	gpt, err := workload.GPT3(net.NPUs())
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(net, 500, gpt)
	o, err := p.NewOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	valid := []float64{340.62, 84.78, 56.39, 18.21}
	bad := [][]float64{nil, valid[:3], append(valid[:4:4], 10)}
	for d := range valid {
		for _, v := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			x := append([]float64(nil), valid...)
			x[d] = v
			bad = append(bad, x)
		}
	}
	for _, obj := range []Objective{PerfOpt, PerfPerCostOpt} {
		p.Objective = obj
		f, _ := o.objective()
		if got := f(valid); math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("%v at valid %v = %v", obj, valid, got)
		}
		for _, x := range bad {
			if got := f(x); !math.IsInf(got, 1) {
				t.Errorf("%v at invalid %v = %v, want +Inf", obj, x, got)
			}
		}
	}
}

// manyCollectives is a synthetic data-parallel workload whose layers
// each carry a different All-Reduce, and whose last layer's DP stage
// sums all of them again: more distinct collectives than the pricing
// kernel's stack scratch holds, and stage windows long enough that
// their summation order shows in the low bits.
func manyCollectives(npus, layers int) *workload.Workload {
	w := &workload.Workload{
		Name:      "many-collectives",
		Params:    1e9,
		Strategy:  workload.Strategy{TP: 1, DP: npus},
		Minibatch: 1,
	}
	var all []workload.Comm
	for i := 0; i < layers; i++ {
		c := workload.Comm{Op: collective.AllReduce, Bytes: 1e8 * (1 + 0.37*float64(i)), Scope: workload.DPScope}
		all = append(all, c)
		w.Layers = append(w.Layers, workload.Layer{
			Name:     fmt.Sprintf("l%d", i),
			Count:    1 + i%3,
			FwdFLOPs: 1e12 * float64(i+1),
			DPComm:   []workload.Comm{c},
		})
	}
	w.Layers[layers-1].DPComm = all
	return w
}

// TestObjectiveOutgrowsStackScratch checks the heap-scratch calls: a
// 9-dimension network, and a workload with more distinct collectives
// than the stack scratch holds, price exactly as evaluation does.
func TestObjectiveOutgrowsStackScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nine := topology.MustParse("RI(2)_RI(2)_RI(2)_RI(2)_RI(2)_RI(2)_RI(2)_RI(2)_SW(2)")
	if nine.NumDims() != 9 {
		t.Fatalf("%d dimensions, want 9", nine.NumDims())
	}
	small := topology.MustParse("RI(4)_SW(8)")
	for _, c := range []struct {
		name string
		p    *Problem
	}{
		{"9D, 4 collectives", NewProblem(nine, 500, manyCollectives(nine.NPUs(), 4))},
		{"9D, 40 collectives", NewProblem(nine, 500, manyCollectives(nine.NPUs(), 40))},
		{"2D, 40 collectives", NewProblem(small, 500, manyCollectives(small.NPUs(), 40), manyCollectives(small.NPUs(), 3))},
	} {
		checkObjectiveBits(t, c.name, c.p, rng, 200)
	}
}

// TestObjectiveAllocationFree checks that the objective allocates
// nothing per call on Table II mixes, under both objectives.
func TestObjectiveAllocationFree(t *testing.T) {
	for _, tn := range []string{"3D-4K", "4D-4K"} {
		net, err := topology.Preset(tn)
		if err != nil {
			t.Fatal(err)
		}
		p := NewProblem(net, 600)
		for i, name := range objectiveMixes[5].presets {
			w, err := workload.Preset(name, net.NPUs())
			if err != nil {
				t.Fatal(err)
			}
			p.AddTarget(w, objectiveMixes[5].weights[i])
		}
		o, err := p.NewOptimizer()
		if err != nil {
			t.Fatal(err)
		}
		x := topology.EqualBW(600, net.NumDims())
		for _, obj := range []Objective{PerfOpt, PerfPerCostOpt} {
			p.Objective = obj
			f, _ := o.objective()
			if n := testing.AllocsPerRun(100, func() { f(x) }); n != 0 {
				t.Errorf("%s %v objective allocates %v times per call, want 0", tn, obj, n)
			}
		}
	}
}
