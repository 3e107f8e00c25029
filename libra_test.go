package libra_test

import (
	"context"
	"math"
	"testing"

	"libra"
	"libra/internal/collective"
	"libra/internal/cost"
	"libra/internal/sim"
	"libra/internal/themis"
	"libra/internal/workload"
)

// The quickstart from the package docs must work end-to-end.
func TestQuickstartFlow(t *testing.T) {
	net := libra.MustParseTopology("RI(4)_FC(8)_RI(4)_SW(32)")
	if net.NPUs() != 4096 {
		t.Fatalf("NPUs = %d", net.NPUs())
	}
	gpt3, err := libra.GPT3(net.NPUs())
	if err != nil {
		t.Fatal(err)
	}
	p := libra.NewProblem(net, 500, gpt3)
	eq, err := p.EqualBW()
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if r.WeightedTime > eq.WeightedTime*(1+1e-9) {
		t.Errorf("optimized %v slower than EqualBW %v", r.WeightedTime, eq.WeightedTime)
	}
	if math.Abs(r.BW.Total()-500) > 0.5 {
		t.Errorf("budget not honored: %v", r.BW.Total())
	}
}

func TestFacadePresets(t *testing.T) {
	for _, name := range []string{"4D-4K", "3D-4K", "3D-512", "3D-1K", "4D-2K", "3D-Torus"} {
		if _, err := libra.PresetTopology(name); err != nil {
			t.Errorf("PresetTopology(%s): %v", name, err)
		}
	}
	for _, name := range []string{"Turing-NLG", "GPT-3", "MSFT-1T", "DLRM", "ResNet-50"} {
		if _, err := libra.WorkloadPreset(name, 4096); err != nil {
			t.Errorf("WorkloadPreset(%s): %v", name, err)
		}
	}
}

func TestFacadeCostAndCollectives(t *testing.T) {
	net := libra.MustParseTopology("RI(4)_SW(2)")
	bw := libra.EqualBW(100, 2)
	c, err := cost.Network(cost.Default(), net, bw)
	if err != nil || c <= 0 {
		t.Errorf("cost.Network = %v, %v", c, err)
	}
	ct := libra.CollectiveTime(libra.AllReduce, 1e9, net, bw)
	if ct <= 0 {
		t.Errorf("CollectiveTime = %v", ct)
	}
	pr, err := sim.SimulateCollective(collective.AllReduce, 1e9, collective.FullMapping(net), bw, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Makespan < ct*(1-1e-9) {
		t.Errorf("simulated %v beats analytic bound %v", pr.Makespan, ct)
	}
}

func TestFacadeSimAndCoDesign(t *testing.T) {
	net := libra.MustParseTopology("RI(4)_RI(4)_RI(4)")
	bw := libra.EqualBW(300, 3)
	w, err := workload.Transformer(libra.TransformerConfig{
		Name: "tiny", NumLayers: 2, Hidden: 1024, SeqLen: 128,
	}, libra.Strategy{TP: 4, DP: 16}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.TrainingConfig{Net: net, Compute: libra.A100(), Chunks: 8}
	base, err := sim.SimulateIteration(cfg, w, bw)
	if err != nil {
		t.Fatal(err)
	}
	th, err := themis.SimulateIteration(cfg, w, bw)
	if err != nil {
		t.Fatal(err)
	}
	if th.Total > base.Total*(1+1e-9) {
		t.Errorf("Themis %v worse than baseline %v", th.Total, base.Total)
	}
	ts, err := libra.TacosAllGather(net, bw, 64e6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Makespan <= 0 {
		t.Errorf("Tacos makespan = %v", ts.Makespan)
	}
	art, _, err := libra.TacosAllReduceTime(net, bw, 64e6, 2)
	if err != nil || art <= 0 {
		t.Errorf("TacosAllReduceTime = %v, %v", art, err)
	}
	tr, err := themis.Schedule(collective.AllReduce, 64e6, collective.FullMapping(net), bw, 4)
	if err != nil || tr.Makespan <= 0 {
		t.Errorf("ThemisSchedule = %v, %v", tr, err)
	}
}

// The two construction paths — a ProblemSpec literal and NewProblem plus
// field assignment — and the Engine must agree end to end.
func TestFacadeOptionsSpecEngine(t *testing.T) {
	built, err := (&libra.ProblemSpec{
		Topology:    "RI(4)_SW(8)",
		BudgetGBps:  300,
		Workloads:   []libra.WorkloadSpec{{Preset: "Turing-NLG"}},
		Objective:   "perf",
		Constraints: []libra.ConstraintSpec{libra.DimCap(2, 200)},
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	net := libra.MustParseTopology("RI(4)_SW(8)")
	tnlg, err := libra.WorkloadPreset("Turing-NLG", net.NPUs())
	if err != nil {
		t.Fatal(err)
	}
	p := libra.NewProblem(net, 300, tnlg)
	p.Objective = libra.PerfOpt
	p.Constraints = []libra.ConstraintSpec{libra.DimCap(2, 200)}
	if fb, fp := mustFingerprint(t, built), mustFingerprint(t, p); fb != fp {
		t.Errorf("spec-built fingerprint %s != field-built %s", fb, fp)
	}
	r, err := p.OptimizeContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.BW[1] > 200+1e-6 {
		t.Errorf("dim cap ignored: %v", r.BW)
	}

	spec, err := p.Spec()
	if err != nil {
		t.Fatal(err)
	}
	engine := libra.NewEngine(libra.EngineConfig{Workers: 2, CacheSize: 8})
	defer engine.Close()
	er, err := engine.Optimize(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(er.Result.WeightedTime-r.WeightedTime) > 1e-12*r.WeightedTime {
		t.Errorf("engine result %v != direct result %v", er.Result.WeightedTime, r.WeightedTime)
	}
	hit, err := engine.Optimize(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Error("repeat optimize missed the engine cache")
	}
}

// Parallel multistart on a real LIBRA objective must return bit-identical
// results to the sequential path — and, under -race, proves the timemodel
// closures tolerate concurrent starts.
func TestFacadeParallelSolveDeterminism(t *testing.T) {
	net := libra.MustParseTopology("RI(4)_FC(8)_SW(16)")
	gpt3, err := libra.WorkloadPreset("GPT-3", net.NPUs())
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 9} {
		mk := func(workers int) *libra.Problem {
			p := libra.NewProblem(net, 400, gpt3)
			p.Objective = libra.PerfPerCostOpt
			p.Solver = libra.SolverOptions{Seed: seed, Starts: 6, Workers: workers}
			return p
		}
		seq, err := mk(1).Optimize()
		if err != nil {
			t.Fatal(err)
		}
		par, err := mk(4).Optimize()
		if err != nil {
			t.Fatal(err)
		}
		if seq.WeightedTime != par.WeightedTime || seq.Cost != par.Cost {
			t.Errorf("seed %d: parallel diverged: %+v vs %+v", seed, seq, par)
		}
		for d := range seq.BW {
			if seq.BW[d] != par.BW[d] {
				t.Errorf("seed %d dim %d: BW %v != %v", seed, d, seq.BW[d], par.BW[d])
			}
		}
	}
}

// The frontier facade must work end to end through an Engine.
func TestFacadeFrontier(t *testing.T) {
	engine := libra.NewEngine(libra.EngineConfig{})
	defer engine.Close()
	spec := &libra.ProblemSpec{
		Topology:  "3D-512",
		Workloads: []libra.WorkloadSpec{{Preset: "GPT-3"}},
		Solver:    &libra.SolverSpec{Starts: 2, MaxIters: 60},
	}
	res, err := libra.Frontier(context.Background(), engine, spec,
		libra.FrontierRequest{Budgets: []float64{250, 500}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || len(res.Frontier) == 0 || len(res.EqualBW) != 2 {
		t.Fatalf("frontier shape: %d points, %d pareto, %d baseline",
			len(res.Points), len(res.Frontier), len(res.EqualBW))
	}
	for _, p := range res.Points {
		if p.Err != nil {
			t.Fatalf("budget %v: %v", p.BudgetGBps, p.Err)
		}
	}
}

// The co-design subsystem on the paper's §VI-E scenario (MSFT-1T on
// 4D-4K at 1000 GB/s) must reproduce the classic per-strategy loop —
// workload.MSFT1TWithTP + Problem.Optimize, what examples/paracoopt did
// before the port — bit-identically: same joint optimum, same bandwidth
// vector, same baseline.
func TestFacadeCoDesignReproducesParacoopt(t *testing.T) {
	net, err := libra.PresetTopology("4D-4K")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1000.0
	tps := []int{8, 16, 32, 64, 128, 256}

	// Classic path.
	baseW, err := workload.MSFT1TWithTP(net.NPUs(), 128)
	if err != nil {
		t.Fatal(err)
	}
	base, err := libra.NewProblem(net, budget, baseW).EqualBW()
	if err != nil {
		t.Fatal(err)
	}
	type classic struct {
		eq, opt libra.Result
	}
	direct := map[int]classic{}
	bestTP, bestTime := 0, math.Inf(1)
	for _, tp := range tps {
		w, err := workload.MSFT1TWithTP(net.NPUs(), tp)
		if err != nil {
			t.Fatal(err)
		}
		p := libra.NewProblem(net, budget, w)
		eq, err := p.EqualBW()
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		direct[tp] = classic{eq, r}
		if r.WeightedTime < bestTime {
			bestTP, bestTime = tp, r.WeightedTime
		}
	}

	// Co-design subsystem path.
	engine := libra.NewEngine(libra.EngineConfig{})
	defer engine.Close()
	rep, err := libra.CoDesign(context.Background(), engine, &libra.CoDesignSpec{
		Base: libra.ProblemSpec{
			Topology:   "4D-4K",
			BudgetGBps: budget,
			Workloads:  []libra.WorkloadSpec{{Preset: "MSFT-1T"}},
		},
		TPs: tps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline.Strategy.TP != 128 || rep.Baseline.EqualBW.WeightedTime != base.WeightedTime {
		t.Errorf("baseline = %v @ %v, want HP-(128, 32) @ %v",
			rep.Baseline.Strategy, rep.Baseline.EqualBW.WeightedTime, base.WeightedTime)
	}
	if len(rep.Candidates) != len(tps) {
		t.Fatalf("%d candidates, want %d", len(rep.Candidates), len(tps))
	}
	for _, c := range rep.Candidates {
		if c.Err != nil {
			t.Fatalf("%s: %v", c.Strategy, c.Err)
		}
		want, ok := direct[c.Strategy.TP]
		if !ok {
			t.Fatalf("unexpected candidate %s", c.Strategy)
		}
		if c.Optimized.WeightedTime != want.opt.WeightedTime {
			t.Errorf("TP=%d optimized time %v != classic %v",
				c.Strategy.TP, c.Optimized.WeightedTime, want.opt.WeightedTime)
		}
		if c.EqualBW == nil || c.EqualBW.WeightedTime != want.eq.WeightedTime {
			t.Errorf("TP=%d EqualBW diverged from classic path", c.Strategy.TP)
		}
		for d := range c.Optimized.BW {
			if c.Optimized.BW[d] != want.opt.BW[d] {
				t.Errorf("TP=%d dim %d: BW %v != classic %v",
					c.Strategy.TP, d, c.Optimized.BW[d], want.opt.BW[d])
			}
		}
	}
	best := rep.Best()
	if best == nil || best.Strategy.TP != bestTP || best.Optimized.WeightedTime != bestTime {
		t.Fatalf("joint optimum %v @ %v, classic loop found TP=%d @ %v",
			best.Strategy, best.Optimized.WeightedTime, bestTP, bestTime)
	}
	// The paper's interior peak: the joint optimum is neither the lowest
	// nor the highest TP, and beats the baseline strategy's co-design.
	if bestTP == tps[0] || bestTP == tps[len(tps)-1] || bestTP == 128 {
		t.Errorf("joint optimum TP=%d; expected an interior, non-default peak", bestTP)
	}
}

func mustFingerprint(t *testing.T, p *libra.Problem) string {
	t.Helper()
	spec, err := p.Spec()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}
