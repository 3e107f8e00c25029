// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact; see EXPERIMENTS.md for the
// recorded outputs and paper-vs-measured comparison), plus micro and
// ablation benchmarks on the framework's moving parts.
//
// Figure benchmarks use the trimmed bandwidth sweeps; run
// `go run ./cmd/experiments -out results` for the full tables.
package libra_test

import (
	"context"
	"sync/atomic"
	"testing"

	"libra"
	"libra/internal/collective"
	"libra/internal/experiments"
	"libra/internal/opt"
	"libra/internal/sim"
	"libra/internal/telemetry"
	"libra/internal/themis"
	"libra/internal/timemodel"
	"libra/internal/topology"
	"libra/internal/workload"
)

func runExperiment(b *testing.B, f func(context.Context) (*experiments.Table, error)) {
	b.Helper()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		tbl, err := f(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// ---- One benchmark per paper artifact ----

func BenchmarkFig01CommSizes(b *testing.B) { runExperiment(b, experiments.Fig01CommSizes) }
func BenchmarkFig09PipelineUtilization(b *testing.B) {
	runExperiment(b, experiments.Fig09Pipeline)
}
func BenchmarkFig10UtilizationFrontier(b *testing.B) {
	runExperiment(b, experiments.Fig10Utilization)
}
func BenchmarkFig11TopologyNotation(b *testing.B) { runExperiment(b, experiments.Fig11Notation) }
func BenchmarkTable1CostModel(b *testing.B)       { runExperiment(b, experiments.Table1CostModel) }
func BenchmarkFig12CostExample(b *testing.B)      { runExperiment(b, experiments.Fig12CostExample) }
func BenchmarkFig13SpeedupSweep(b *testing.B) {
	runExperiment(b, func(ctx context.Context) (*experiments.Table, error) {
		return experiments.Fig13Fig14SpeedupSweep(ctx, true)
	})
}
func BenchmarkFig14PerfPerCostSweep(b *testing.B) {
	// Figs. 13 and 14 are two views of one sweep; both regenerate it.
	runExperiment(b, func(ctx context.Context) (*experiments.Table, error) {
		return experiments.Fig13Fig14SpeedupSweep(ctx, true)
	})
}
func BenchmarkFig15NonTransformer(b *testing.B) {
	runExperiment(b, func(ctx context.Context) (*experiments.Table, error) {
		return experiments.Fig15NonTransformer(ctx, true)
	})
}
func BenchmarkFig16TopologyExploration(b *testing.B) {
	runExperiment(b, func(ctx context.Context) (*experiments.Table, error) {
		return experiments.Fig16TopologyExploration(ctx, true)
	})
}
func BenchmarkFig17GroupOptimization(b *testing.B) {
	runExperiment(b, experiments.Fig17aGroupLLM)
}
func BenchmarkFig17bGroupMixture(b *testing.B) {
	runExperiment(b, experiments.Fig17bGroupMixture)
}
func BenchmarkFig18CostSensitivity(b *testing.B) {
	runExperiment(b, experiments.Fig18CostSensitivity)
}
func BenchmarkFig19Themis(b *testing.B) { runExperiment(b, experiments.Fig19Themis) }
func BenchmarkFig20Tacos(b *testing.B)  { runExperiment(b, experiments.Fig20Tacos) }
func BenchmarkFig21ParallelizationCoopt(b *testing.B) {
	runExperiment(b, experiments.Fig21ParallelizationCoopt)
}

// ---- Micro benchmarks ----

func BenchmarkAnalyticalCollectiveTime(b *testing.B) {
	net := topology.FourD4K()
	bw := topology.EqualBW(400, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		libra.CollectiveTime(libra.AllReduce, 1e9, net, bw)
	}
}

func BenchmarkIterationEstimate(b *testing.B) {
	net := topology.FourD4K()
	w, err := workload.MSFT1T(net.NPUs())
	if err != nil {
		b.Fatal(err)
	}
	est := &timemodel.Estimator{Net: net, Compute: libra.A100(), Loop: timemodel.NoOverlap}
	bw := topology.EqualBW(400, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := est.Iteration(w, bw); err != nil {
			b.Fatal(err)
		}
	}
}

// solverWork lists the solver counters whose per-op deltas the solver
// benchmarks report. Unlike ns/op they are exactly reproducible: an
// algorithmic change shows up in them on any machine.
var solverWork = []struct {
	unit string
	c    *telemetry.Counter
}{
	{"starts/op", telemetry.SolverStarts},
	{"pgd-iters/op", telemetry.SolverPGDIterations},
	{"nm-iters/op", telemetry.SolverNMIterations},
	{"cd-iters/op", telemetry.SolverCDIterations},
}

// reportSolverWork snapshots the solverWork counters and returns a func
// that reports their deltas per op. Call it right before the timed loop
// and defer the result: defer reportSolverWork(b)().
func reportSolverWork(b *testing.B) func() {
	before := make([]uint64, len(solverWork))
	for i, w := range solverWork {
		before[i] = w.c.Value()
	}
	return func() {
		for i, w := range solverWork {
			b.ReportMetric(float64(w.c.Value()-before[i])/float64(b.N), w.unit)
		}
	}
}

func BenchmarkPerfOptSolve(b *testing.B) {
	net := topology.FourD4K()
	w, err := workload.MSFT1T(net.NPUs())
	if err != nil {
		b.Fatal(err)
	}
	defer reportSolverWork(b)()
	for i := 0; i < b.N; i++ {
		p := libra.NewProblem(net, 500, w)
		if _, err := p.Optimize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinimizeSequential / BenchmarkMinimizeParallel compare one
// worker with GOMAXPROCS workers on the nonconvex perf-per-cost shape,
// whose cold starts all fan out. A convex (perf) solve runs its starts
// one at a time whatever the worker count, because every start can end
// it, so it has nothing to parallelize. Results are bit-identical by
// construction; on a 4+ core machine the parallel path should run the
// 12 starts ≥2x faster.
func minimizeBenchProblem(workers int) *libra.Problem {
	net := topology.FourD4K()
	w, err := workload.MSFT1T(net.NPUs())
	if err != nil {
		panic(err)
	}
	p := libra.NewProblem(net, 500, w)
	p.Objective = libra.PerfPerCostOpt
	p.Solver = libra.SolverOptions{Starts: 12, Workers: workers}
	return p
}

func BenchmarkMinimizeSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := minimizeBenchProblem(1).Optimize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinimizeParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := minimizeBenchProblem(0).Optimize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerfPerCostSolve(b *testing.B) {
	net := topology.FourD4K()
	w, err := workload.MSFT1T(net.NPUs())
	if err != nil {
		b.Fatal(err)
	}
	defer reportSolverWork(b)()
	for i := 0; i < b.N; i++ {
		p := libra.NewProblem(net, 500, w)
		p.Objective = libra.PerfPerCostOpt
		if _, err := p.Optimize(); err != nil {
			b.Fatal(err)
		}
	}
}

// coldSolveMixSpecs is the e2ebench cold-solve request shape: a
// perf-per-cost mix of the three Table II transformers at uneven weights,
// one problem on each of 3D-4K and 3D-1K.
func coldSolveMixSpecs() []*libra.ProblemSpec {
	mix := func(w1, w2, w3 float64) []libra.WorkloadSpec {
		return []libra.WorkloadSpec{
			{Preset: "GPT-3", Weight: w1},
			{Preset: "Turing-NLG", Weight: w2},
			{Preset: "MSFT-1T", Weight: w3},
		}
	}
	return []*libra.ProblemSpec{
		{Topology: "3D-4K", Workloads: mix(1.187, 0.734, 0.912), BudgetGBps: 612.5, Objective: "perf-per-cost"},
		{Topology: "3D-1K", Workloads: mix(0.641, 1.352, 1.058), BudgetGBps: 431.25, Objective: "perf-per-cost"},
	}
}

// BenchmarkColdSolveMix runs the cold-solve request shape in process: one
// op builds and solves both problems of coldSolveMixSpecs. Starts run on
// one worker so ns/op does not scale with the host's core count.
func BenchmarkColdSolveMix(b *testing.B) {
	specs := coldSolveMixSpecs()
	b.ReportAllocs()
	defer reportSolverWork(b)()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			p, err := s.Build()
			if err != nil {
				b.Fatal(err)
			}
			p.Solver.Workers = 1
			if _, err := p.Optimize(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTimeFuncEval prices one bandwidth vector with the optimizer's
// objective, a compiled plan's Time (GPT-3 on 4D-4K): the innermost call
// of every solve.
func BenchmarkTimeFuncEval(b *testing.B) {
	net := topology.FourD4K()
	w, err := workload.GPT3(net.NPUs())
	if err != nil {
		b.Fatal(err)
	}
	est := &timemodel.Estimator{Net: net, Compute: libra.A100(), Loop: timemodel.NoOverlap}
	pl, err := est.Compile(w)
	if err != nil {
		b.Fatal(err)
	}
	bw := topology.BWConfig{340.62, 84.78, 56.39, 18.21}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pl.Time(bw) <= 0 {
			b.Fatal("non-positive iteration time")
		}
	}
}

// ---- Service-layer (Engine) benchmarks ----

func engineBenchSpec(budget float64) *libra.ProblemSpec {
	return &libra.ProblemSpec{
		Topology:   "4D-4K",
		Workloads:  []libra.WorkloadSpec{{Preset: "MSFT-1T"}},
		BudgetGBps: budget,
	}
}

// BenchmarkEngineOptimizeParallel drives concurrent distinct solves
// through the worker pool — the service layer's heavy-traffic shape. The
// cache is disabled so every request costs a real solve.
func BenchmarkEngineOptimizeParallel(b *testing.B) {
	e := libra.NewEngine(libra.EngineConfig{CacheSize: -1})
	defer e.Close()
	ctx := context.Background()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			// Distinct budgets defeat single-flight coalescing.
			n := seq.Add(1)
			if _, err := e.Optimize(ctx, engineBenchSpec(400+float64(n%997))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineCacheHit measures the memoized path: a repeated
// identical optimize must come back from the LRU in well under a
// millisecond.
func BenchmarkEngineCacheHit(b *testing.B) {
	e := libra.NewEngine(libra.EngineConfig{CacheSize: 16})
	defer e.Close()
	ctx := context.Background()
	spec := engineBenchSpec(500)
	if _, err := e.Optimize(ctx, spec); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := e.Optimize(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Cached {
			b.Fatal("cache miss on identical spec")
		}
	}
}

// BenchmarkFrontier runs a 5-point budget frontier per iteration with the
// cache disabled, so every point costs a real solve — the frontier
// subsystem's end-to-end hot path.
func BenchmarkFrontier(b *testing.B) {
	e := libra.NewEngine(libra.EngineConfig{CacheSize: -1})
	defer e.Close()
	ctx := context.Background()
	spec := engineBenchSpec(0)
	req := libra.FrontierRequest{BudgetMin: 200, BudgetMax: 1000, BudgetSteps: 5, SkipEqualBW: true}
	defer reportSolverWork(b)()
	for i := 0; i < b.N; i++ {
		res, err := libra.Frontier(ctx, e, spec, req)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Frontier) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

// BenchmarkCoDesign runs a three-strategy §VI-E co-design study (MSFT-1T
// on 4D-4K) per iteration: enumerate + memory-model + baseline pricing +
// per-candidate optimize/EqualBW through the engine. Caching is disabled
// and every parallelism lever pinned — one engine worker serializes the
// candidates, and Starts:1 leaves the multistart solver nothing to fan
// out (opt.Options.Workers follows GOMAXPROCS and is not spec-pinnable) —
// so the measurement tracks the candidate-solve pipeline, not the host's
// core count, keeping it anchor-normalizable and gateable by benchdiff.
func BenchmarkCoDesign(b *testing.B) {
	spec := &libra.CoDesignSpec{
		Base: libra.ProblemSpec{
			Topology:   "4D-4K",
			BudgetGBps: 1000,
			Workloads:  []libra.WorkloadSpec{{Preset: "MSFT-1T"}},
			Solver:     &libra.SolverSpec{Starts: 1},
		},
		TPs: []int{32, 64, 128},
	}
	e := libra.NewEngine(libra.EngineConfig{Workers: 1, CacheSize: -1})
	defer e.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := libra.CoDesign(ctx, e, spec)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Best() == nil || len(rep.Candidates) != 3 {
			b.Fatal("degenerate co-design report")
		}
	}
}

// BenchmarkCluster runs a two-tenant §VI-D allocation study per
// iteration: own-opt + group-opt + partition-grid solves, the per-tenant
// cross-pricing of every shared design, and the fairness metrics. Like
// BenchmarkCoDesign it pins every parallelism lever — one engine worker,
// no cache, Starts:1 — so the measurement tracks the study pipeline, not
// the host's core count, keeping it anchor-normalizable and gateable.
func BenchmarkCluster(b *testing.B) {
	spec := &libra.ClusterSpec{
		Topology:       "4D-4K",
		BudgetGBps:     1000,
		Jobs:           []libra.ClusterJobSpec{{Preset: "GPT-3"}, {Preset: "MSFT-1T"}},
		PartitionSteps: 4,
		Solver:         &libra.SolverSpec{Starts: 1},
	}
	e := libra.NewEngine(libra.EngineConfig{Workers: 1, CacheSize: -1})
	defer e.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := libra.Cluster(ctx, e, spec)
		if err != nil {
			b.Fatal(err)
		}
		if rep.GroupDesign() == nil || rep.Partition == nil || len(rep.Summary) != 3 {
			b.Fatal("degenerate cluster report")
		}
	}
}

func BenchmarkPolyhedronProjection(b *testing.B) {
	c := opt.NewConstraints(4).SumEquals(500).SetAllLower(0.1)
	c.VarAtMost(3, 50).Ordered(0, 1)
	x := []float64{900, -20, 70, 300}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt.Project(c, x)
	}
}

func BenchmarkPipelineSim64Chunks(b *testing.B) {
	net := topology.FourD4K()
	mp := collective.FullMapping(net)
	bw := topology.EqualBW(400, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.SimulateCollective(collective.AllReduce, 1e9, mp, bw, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNPULevelSim(b *testing.B) {
	net := topology.MustParse("RI(4)_FC(4)_SW(4)")
	mp := collective.FullMapping(net)
	bw := topology.EqualBW(300, 3)
	for i := 0; i < b.N; i++ {
		if _, err := sim.SimulateCollectiveNPULevel(context.Background(), net, collective.AllReduce, 1e8, mp, bw, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThemisSchedule(b *testing.B) {
	net := topology.ThreeDTorus()
	mp := collective.FullMapping(net)
	bw := topology.EqualBW(300, 3)
	for i := 0; i < b.N; i++ {
		if _, err := themis.Schedule(collective.AllReduce, 1e9, mp, bw, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTacosSynthesis(b *testing.B) {
	net := topology.ThreeDTorus()
	bw := topology.EqualBW(999, 3)
	for i := 0; i < b.N; i++ {
		if _, err := libra.TacosAllGather(net, bw, 1e9, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benchmarks (design choices called out in DESIGN.md) ----

// Chunk-count sensitivity: how far the pipelined makespan sits above the
// analytical bound as the paper's 64-chunk choice varies.
func BenchmarkAblationChunkCount(b *testing.B) {
	net := topology.FourD4K()
	mp := collective.FullMapping(net)
	bw := topology.EqualBW(400, 4)
	bound := collective.Time(collective.AllReduce, 1e9, mp, bw)
	for _, chunks := range []int{1, 8, 64, 256} {
		b.Run(benchName("chunks", chunks), func(b *testing.B) {
			var gap float64
			for i := 0; i < b.N; i++ {
				r, err := sim.SimulateCollective(collective.AllReduce, 1e9, mp, bw, chunks)
				if err != nil {
					b.Fatal(err)
				}
				gap = r.Makespan/bound - 1
			}
			b.ReportMetric(gap*100, "pct-above-bound")
		})
	}
}

// Optimizer-policy ablation: the paper-style IdealFullDims optimizer vs
// the exact Actual mapping, evaluated on the true (Actual) model.
func BenchmarkAblationMappingPolicy(b *testing.B) {
	net := topology.FourD4K()
	w, err := workload.GPT3(net.NPUs())
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range []timemodel.MappingPolicy{timemodel.Actual, timemodel.IdealFullDims} {
		name := "actual"
		if policy == timemodel.IdealFullDims {
			name = "ideal-full-dims"
		}
		b.Run(name, func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				p := libra.NewProblem(net, 500, w)
				p.OptPolicy = policy
				eq, err := p.EqualBW()
				if err != nil {
					b.Fatal(err)
				}
				r, err := p.Optimize()
				if err != nil {
					b.Fatal(err)
				}
				speedup = eq.WeightedTime / r.WeightedTime
			}
			b.ReportMetric(speedup, "speedup-x")
		})
	}
}

// In-network collective offload ablation (§IV-C's switch-offload model).
// Offload applies to All-Reduce, so the workload synchronizes gradients
// with classic data-parallel All-Reduce (not ZeRO-2's RS+AG) over the
// switch dimension.
func BenchmarkAblationInNetworkOffload(b *testing.B) {
	net := topology.ThreeD4K()
	w := &workload.Workload{
		Name: "dp-allreduce", Params: 1e9,
		Strategy: workload.Strategy{TP: 128, DP: 32}, Minibatch: 32,
		Layers: []workload.Layer{{
			Name: "block", Count: 32,
			FwdFLOPs: 1e12, TPFLOPs: 2e12,
			DPComm: []workload.Comm{{Op: collective.AllReduce, Bytes: 2e8, Scope: workload.DPScope}},
		}},
	}
	for _, offload := range []bool{false, true} {
		name := "off"
		if offload {
			name = "switch-offload"
		}
		b.Run(name, func(b *testing.B) {
			est := &timemodel.Estimator{Net: net, Compute: libra.A100(), Loop: timemodel.NoOverlap}
			if offload {
				est.InNetwork = []bool{false, false, true} // SW(32) offloads
			}
			var t float64
			for i := 0; i < b.N; i++ {
				r, err := est.Iteration(w, topology.EqualBW(300, 3))
				if err != nil {
					b.Fatal(err)
				}
				t = r.Total
			}
			b.ReportMetric(t, "iter-s")
		})
	}
}

// Training-loop ablation: NoOverlap vs TP-DP overlap (Fig. 5b vs 5c).
func BenchmarkAblationTrainingLoop(b *testing.B) {
	net := topology.FourD4K()
	w, err := workload.MSFT1T(net.NPUs())
	if err != nil {
		b.Fatal(err)
	}
	for _, loop := range []timemodel.Loop{timemodel.NoOverlap, timemodel.TPDPOverlap} {
		b.Run(loop.String(), func(b *testing.B) {
			est := &timemodel.Estimator{Net: net, Compute: libra.A100(), Loop: loop}
			var t float64
			for i := 0; i < b.N; i++ {
				r, err := est.Iteration(w, topology.EqualBW(400, 4))
				if err != nil {
					b.Fatal(err)
				}
				t = r.Total
			}
			b.ReportMetric(t, "iter-s")
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "-" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
