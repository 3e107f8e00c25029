package experiments

import (
	"context"
	"fmt"

	"libra/internal/cluster"
	"libra/internal/collective"
	"libra/internal/compute"
	"libra/internal/core"
	"libra/internal/cost"
	"libra/internal/sim"
	"libra/internal/tacos"
	"libra/internal/themis"
	"libra/internal/timemodel"
	"libra/internal/topology"
	"libra/internal/workload"
)

// groupStudy optimizes the 4D-4K network for each workload alone and for
// the whole group, then cross-evaluates: speedup over EqualBW (bars in
// Fig. 17) and slowdown vs each workload's own optimal network (dots).
// The study runs through the cluster subsystem, which solves the own and
// group problems concurrently and hoists one validated evaluator per
// workload across the whole cross-evaluation loop.
func groupStudy(ctx context.Context, id, title string, names []string) (*Table, error) {
	jobs := make([]cluster.JobSpec, len(names))
	for i, n := range names {
		jobs[i] = cluster.JobSpec{Preset: n}
	}
	engine := core.NewEngine(core.EngineConfig{})
	defer engine.Close()
	rep, err := cluster.Compute(ctx, engine, &cluster.Spec{
		Topology:   "4D-4K",
		BudgetGBps: 1000,
		Jobs:       jobs,
		Policies:   []string{cluster.PolicyGroupOpt, cluster.PolicyPerJobOpt},
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"running", "on_network_optimized_for", "speedup_over_equalBW", "slowdown_over_own_opt"},
	}
	for i := range rep.Jobs {
		j := &rep.Jobs[i]
		if j.Error != "" {
			return nil, fmt.Errorf("optimizing for %s: %s", j.Name, j.Error)
		}
		for di := range rep.Designs {
			d := &rep.Designs[di]
			if d.Error != "" {
				return nil, fmt.Errorf("design %s: %s", d.Name, d.Error)
			}
			t.AddRow(j.Name, d.Name,
				f2(j.EqualBWTimeS/d.TimesS[i]),
				f2(d.TimesS[i]/j.OwnTimeS))
		}
	}
	t.AddNote("paper: single-target networks slow non-targets by up to 1.77x; the group-optimized network averages 1.01x slowdown")
	return t, nil
}

// Fig17aGroupLLM regenerates Fig. 17(a): group optimization across the
// three LLMs.
func Fig17aGroupLLM(ctx context.Context) (*Table, error) {
	return groupStudy(ctx, "fig17a", "Group-optimizing LLMs (Turing-NLG, GPT-3, MSFT-1T) on 4D-4K @ 1,000 GB/s",
		[]string{"Turing-NLG", "GPT-3", "MSFT-1T"})
}

// Fig17bGroupMixture regenerates Fig. 17(b): group optimization across a
// language/recommendation/vision mixture.
func Fig17bGroupMixture(ctx context.Context) (*Table, error) {
	return groupStudy(ctx, "fig17b", "Group-optimizing a DNN mixture (MSFT-1T, DLRM, ResNet-50) on 4D-4K @ 1,000 GB/s",
		[]string{"MSFT-1T", "DLRM", "ResNet-50"})
}

// Fig18CostSensitivity regenerates Fig. 18: PerfPerCostOptBW benefit on
// 4D-4K @ 1,000 GB/s while sweeping the inter-Package link cost $1–5/GBps.
func Fig18CostSensitivity(ctx context.Context) (*Table, error) {
	net := topology.FourD4K()
	w, err := workload.MSFT1T(net.NPUs())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig18",
		Title:  "Perf-per-cost of PerfPerCostOptBW vs EqualBW while sweeping inter-Package link cost",
		Header: []string{"pkg_link_$per_GBps", "ppc_vs_equalBW", "speedup_vs_equalBW"},
	}
	// The cost points chain: each solve warm-starts from the previous
	// point's optimum (same network, workload, and budget — only the cost
	// table moves, so the neighboring optimum is an excellent seed).
	var prevBW topology.BWConfig
	for _, dollars := range []float64{1, 2, 3, 4, 5} {
		p := core.NewProblem(net, 1000, w)
		p.Cost = cost.Default().WithPackageLink(dollars)
		p.Objective = core.PerfPerCostOpt
		o, err := p.NewOptimizer()
		if err != nil {
			return nil, err
		}
		eq, err := o.Evaluator().EqualBW(1000)
		if err != nil {
			return nil, err
		}
		var warm []float64
		if prevBW != nil {
			warm = core.ScaleWarmStart(prevBW, 1000, 1000)
		}
		r, err := o.SolveBudget(ctx, 1000, warm)
		if err != nil {
			return nil, err
		}
		prevBW = r.BW
		t.AddRow(f2(dollars), f2(r.PerfPerCost()/eq.PerfPerCost()), f2(eq.WeightedTime/r.WeightedTime))
	}
	t.AddNote("paper: average 4.06x (max 5.59x) perf-per-cost over EqualBW across the sweep")
	return t, nil
}

// Fig19Themis regenerates Fig. 19: GPT-3 on 4D-4K with the Themis runtime
// scheduler enabled on both the EqualBW and the LIBRA-designed networks,
// under iso-cost ($15M) and iso-resource (1,000 GB/s per NPU) setups.
func Fig19Themis(ctx context.Context) (*Table, error) {
	net := topology.FourD4K()
	w, err := workload.GPT3(net.NPUs())
	if err != nil {
		return nil, err
	}
	table := cost.Default()
	cfg := sim.TrainingConfig{Net: net, Compute: compute.A100(), Loop: timemodel.NoOverlap, Chunks: 16}

	evalThemis := func(bw topology.BWConfig) (time, dollars float64, err error) {
		r, err := themis.SimulateIteration(cfg, w, bw)
		if err != nil {
			return 0, 0, err
		}
		c, err := cost.Network(table, net, bw)
		if err != nil {
			return 0, 0, err
		}
		return r.Total, c, nil
	}

	t := &Table{
		ID:     "fig19",
		Title:  "LIBRA + Themis on GPT-3 / 4D-4K: iso-cost ($15M) and iso-resource (1,000 GB/s)",
		Header: []string{"setup", "config", "total_bw_GBps", "cost_$M", "time_s", "speedup", "ppc_vs_equalBW"},
	}

	// --- iso-cost: both networks cost $15M ---
	const dollars = 15e6
	eqBW, err := core.EqualBWForCost(table, net, dollars)
	if err != nil {
		return nil, err
	}
	p := core.NewProblem(net, 0, w)
	p.SkipBudget = true
	p.Constraints = []core.ConstraintSpec{core.DollarBudget(dollars)}
	rLibra, err := p.OptimizeContext(ctx)
	if err != nil {
		return nil, err
	}
	tEq, cEq, err := evalThemis(eqBW)
	if err != nil {
		return nil, err
	}
	tLi, cLi, err := evalThemis(rLibra.BW)
	if err != nil {
		return nil, err
	}
	t.AddRow("iso-cost", "EqualBW+Themis", f2(eqBW.Total()), f2(cEq/1e6), f4(tEq), f2(1.0), f2(1.0))
	t.AddRow("iso-cost", "LIBRA+Themis", f2(rLibra.BW.Total()), f2(cLi/1e6), f4(tLi),
		f2(tEq/tLi), f2((tEq*cEq)/(tLi*cLi)))
	t.AddNote("paper iso-cost: LIBRA supports 5.05x more BW per NPU and yields 2.24x speedup")

	// --- iso-resource: both networks drive 1,000 GB/s per NPU ---
	const budget = 1000.0
	eqBW2 := topology.EqualBW(budget, net.NumDims())
	p2 := core.NewProblem(net, budget, w)
	p2.Objective = core.PerfPerCostOpt
	rLibra2, err := p2.OptimizeContext(ctx)
	if err != nil {
		return nil, err
	}
	tEq2, cEq2, err := evalThemis(eqBW2)
	if err != nil {
		return nil, err
	}
	tLi2, cLi2, err := evalThemis(rLibra2.BW)
	if err != nil {
		return nil, err
	}
	t.AddRow("iso-resource", "EqualBW+Themis", f2(eqBW2.Total()), f2(cEq2/1e6), f4(tEq2), f2(1.0), f2(1.0))
	t.AddRow("iso-resource", "LIBRA+Themis", f2(rLibra2.BW.Total()), f2(cLi2/1e6), f4(tLi2),
		f2(tEq2/tLi2), f2((tEq2*cEq2)/(tLi2*cLi2)))
	t.AddNote("paper iso-resource: 1.04x performance with 4.58x cost reduction = 4.77x perf-per-cost")
	return t, nil
}

// Fig20Tacos regenerates Fig. 20: a 1 GB All-Reduce with 8 chunks on the
// 3D-Torus at 1,000 GB/s per NPU, combining LIBRA designs with the TACOS
// collective synthesizer.
func Fig20Tacos(ctx context.Context) (*Table, error) {
	net := topology.ThreeDTorus()
	const budget = 1000.0
	const m = 1e9
	const chunks = 8
	table := cost.Default()

	// A synthetic workload: one All-Reduce spanning the whole torus.
	arWorkload := &workload.Workload{
		Name: "AllReduce-1GB", Params: m / 2, Strategy: workload.Strategy{TP: 1, DP: net.NPUs()},
		Minibatch: 1,
		Layers: []workload.Layer{{
			Name: "ar", Count: 1,
			DPComm: []workload.Comm{{Op: collective.AllReduce, Bytes: m, Scope: workload.DPScope}},
		}},
	}

	eqBW := topology.EqualBW(budget, 3)
	p := core.NewProblem(net, budget, arWorkload)
	rLibra, err := p.OptimizeContext(ctx) // PerfOpt: traffic-proportional allocation
	if err != nil {
		return nil, err
	}

	mapping := collective.FullMapping(net)
	baselineTime := func(bw topology.BWConfig) (float64, error) {
		r, simErr := sim.SimulateCollective(collective.AllReduce, m, mapping, bw, chunks)
		if simErr != nil {
			return 0, simErr
		}
		return r.Makespan, nil
	}
	costOf := func(bw topology.BWConfig) (float64, error) { return cost.Network(table, net, bw) }

	// The three configurations of Fig. 20.
	tEqTacos, _, err := tacos.AllReduceTime(net, eqBW, m, chunks)
	if err != nil {
		return nil, err
	}
	cEq, err := costOf(eqBW)
	if err != nil {
		return nil, err
	}
	tLibraOnly, err := baselineTime(rLibra.BW)
	if err != nil {
		return nil, err
	}
	cLibra, err := costOf(rLibra.BW)
	if err != nil {
		return nil, err
	}
	tLibraTacos, _, err := tacos.AllReduceTime(net, rLibra.BW, m, chunks)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "fig20",
		Title:  "1 GB All-Reduce, 8 chunks, 3D-Torus @ 1,000 GB/s: LIBRA x TACOS",
		Header: []string{"config", "time_ms", "cost_$M", "perf_vs_equalBW+TACOS", "ppc_vs_equalBW+TACOS"},
	}
	ref := tEqTacos * cEq
	t.AddRow("EqualBW+TACOS", f3(tEqTacos*1e3), f3(cEq/1e6), f2(1.0), f2(1.0))
	t.AddRow("LIBRA-only", f3(tLibraOnly*1e3), f3(cLibra/1e6), f2(tEqTacos/tLibraOnly), f2(ref/(tLibraOnly*cLibra)))
	t.AddRow("LIBRA+TACOS", f3(tLibraTacos*1e3), f3(cLibra/1e6), f2(tEqTacos/tLibraTacos), f2(ref/(tLibraTacos*cLibra)))
	t.AddNote("paper: LIBRA+TACOS is 1.25x over LIBRA-only, 1.08x over TACOS-only, and 1.36x better perf-per-cost than TACOS-only")
	return t, nil
}

// Fig21ParallelizationCoopt regenerates Fig. 21: co-optimizing MSFT-1T's
// parallelization strategy with the 4D-4K network at 1,000 GB/s. All
// results are normalized to EqualBW with HP-(128, 32).
func Fig21ParallelizationCoopt(ctx context.Context) (*Table, error) {
	net := topology.FourD4K()
	const budget = 1000.0

	baseW, err := workload.MSFT1TWithTP(net.NPUs(), 128)
	if err != nil {
		return nil, err
	}
	pBase := core.NewProblem(net, budget, baseW)
	base, err := pBase.EqualBW()
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "fig21",
		Title:  "MSFT-1T parallelization x network co-design on 4D-4K @ 1,000 GB/s (baseline: EqualBW HP-(128,32))",
		Header: []string{"strategy", "speedup_equalBW", "speedup_perfopt_codesign"},
	}
	for _, tp := range []int{8, 16, 32, 64, 128, 256} {
		w, err := workload.MSFT1TWithTP(net.NPUs(), tp)
		if err != nil {
			return nil, err
		}
		p := core.NewProblem(net, budget, w)
		eq, err := p.EqualBW()
		if err != nil {
			return nil, err
		}
		r, err := p.OptimizeContext(ctx)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("TP-%d DP-%d", tp, net.NPUs()/tp),
			f2(base.WeightedTime/eq.WeightedTime),
			f2(base.WeightedTime/r.WeightedTime))
	}
	t.AddNote("paper: HP-(64,64) with its co-optimized PerfOptBW network peaks at 1.19x over the baseline")
	return t, nil
}
