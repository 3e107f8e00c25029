package experiments

import (
	"context"
	"fmt"

	"libra/internal/core"
	"libra/internal/timemodel"
	"libra/internal/topology"
	"libra/internal/workload"
)

// Budgets returns the per-NPU bandwidth sweep (the paper sweeps
// 100–1,000 GB/s). quick keeps three points for tests.
func Budgets(quick bool) []float64 {
	if quick {
		return []float64{100, 500, 1000}
	}
	return []float64{100, 250, 500, 750, 1000}
}

// designSweep evaluates EqualBW, PerfOptBW, and PerfPerCostOptBW for one
// workload on one network across an ascending budget sweep. The optimizer
// models mappings with the paper's IdealFullDims simplification;
// evaluation uses the Actual mapping (reproducing the GPT-3 + 4D-4K
// anomaly of §VI-A). Problem preparation (workload validation, mapping
// resolution) is hoisted out of the loop, and each budget's two solves are
// warm-started from the previous budget's optima.
func designSweep(ctx context.Context, net *topology.Network, w *workload.Workload, budgets []float64,
	visit func(budget float64, eq, perf, ppc core.Result)) error {
	if len(budgets) == 0 {
		return nil
	}
	p := core.NewProblem(net, budgets[0], w)
	p.OptPolicy = timemodel.IdealFullDims
	o, err := p.NewOptimizer()
	if err != nil {
		return err
	}
	var perfPrev, ppcPrev core.Result
	var prevBudget float64
	for _, budget := range budgets {
		eq, err := o.Evaluator().EqualBW(budget)
		if err != nil {
			return err
		}
		var warmPerf, warmPPC []float64
		if prevBudget > 0 {
			warmPerf = core.ScaleWarmStart(perfPrev.BW, prevBudget, budget)
			warmPPC = core.ScaleWarmStart(ppcPrev.BW, prevBudget, budget)
		}
		p.Objective = core.PerfOpt
		perf, err := o.SolveBudget(ctx, budget, warmPerf)
		if err != nil {
			return err
		}
		p.Objective = core.PerfPerCostOpt
		ppc, err := o.SolveBudget(ctx, budget, warmPPC)
		if err != nil {
			return err
		}
		visit(budget, eq, perf, ppc)
		perfPrev, ppcPrev, prevBudget = perf, ppc, budget
	}
	return nil
}

// sweepTable runs the Fig. 13/14-style sweep for a set of workload ×
// network pairs and reports both speedup and perf-per-cost columns.
func sweepTable(ctx context.Context, id, title string, pairs []struct {
	w   *workload.Workload
	net *topology.Network
}, quick bool) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"workload", "network", "bw_per_npu", "speedup_perfopt", "speedup_ppcopt", "ppc_perfopt", "ppc_ppcopt"},
	}
	for _, pair := range pairs {
		err := designSweep(ctx, pair.net, pair.w, Budgets(quick), func(budget float64, eq, perf, ppc core.Result) {
			t.AddRow(
				pair.w.Name, pair.net.Name(), fmt.Sprint(budget),
				f2(eq.WeightedTime/perf.WeightedTime),
				f2(eq.WeightedTime/ppc.WeightedTime),
				f2(perf.PerfPerCost()/eq.PerfPerCost()),
				f2(ppc.PerfPerCost()/eq.PerfPerCost()),
			)
		})
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", pair.w.Name, pair.net.Name(), err)
		}
	}
	t.AddNote("speedup and perf-per-cost are relative to the EqualBW baseline at the same budget")
	return t, nil
}

// Fig13Fig14SpeedupSweep regenerates Figs. 13 and 14: Turing-NLG, GPT-3,
// and MSFT-1T on 3D-4K and 4D-4K across the bandwidth sweep. (The two
// figures plot different columns of the same experiment, so one table
// carries both.)
func Fig13Fig14SpeedupSweep(ctx context.Context, quick bool) (*Table, error) {
	net3, net4 := topology.ThreeD4K(), topology.FourD4K()
	var pairs []struct {
		w   *workload.Workload
		net *topology.Network
	}
	for _, name := range []string{"Turing-NLG", "GPT-3", "MSFT-1T"} {
		for _, net := range []*topology.Network{net3, net4} {
			w, err := workload.Preset(name, net.NPUs())
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, struct {
				w   *workload.Workload
				net *topology.Network
			}{w, net})
		}
	}
	return sweepTable(ctx, "fig13_fig14",
		"LLM speedup (Fig. 13) and perf-per-cost (Fig. 14) over EqualBW, 3D-4K and 4D-4K",
		pairs, quick)
}

// Fig15NonTransformer regenerates Fig. 15: ResNet-50 and DLRM on 4D-4K.
func Fig15NonTransformer(ctx context.Context, quick bool) (*Table, error) {
	net := topology.FourD4K()
	var pairs []struct {
		w   *workload.Workload
		net *topology.Network
	}
	for _, name := range []string{"ResNet-50", "DLRM"} {
		w, err := workload.Preset(name, net.NPUs())
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, struct {
			w   *workload.Workload
			net *topology.Network
		}{w, net})
	}
	return sweepTable(ctx, "fig15",
		"Non-transformer workloads (ResNet-50, DLRM) on 4D-4K",
		pairs, quick)
}

// Fig16TopologyExploration regenerates Fig. 16: MSFT-1T over the 3D-512,
// 3D-1K, and 4D-2K topologies.
func Fig16TopologyExploration(ctx context.Context, quick bool) (*Table, error) {
	var pairs []struct {
		w   *workload.Workload
		net *topology.Network
	}
	for _, name := range []string{topology.Name3D512, topology.Name3D1K, topology.Name4D2K} {
		net, err := topology.Preset(name)
		if err != nil {
			return nil, err
		}
		w, err := workload.MSFT1T(net.NPUs())
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, struct {
			w   *workload.Workload
			net *topology.Network
		}{w, net})
	}
	return sweepTable(ctx, "fig16",
		"MSFT-1T across topology shapes and scales (3D-512, 3D-1K, 4D-2K)",
		pairs, quick)
}
