package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"libra/internal/core"
)

// tinyJob is a small transformer tenant solved in milliseconds.
func tinyJob(name string, hidden int) JobSpec {
	return JobSpec{Transformer: &core.TransformerSpec{
		Name: name, NumLayers: 4, Hidden: hidden, SeqLen: 64, TP: 4, Minibatch: 8,
	}}
}

// tinySpec is a fast end-to-end study: two small transformers sharing a
// 32-NPU 2D network.
func tinySpec() *Spec {
	return &Spec{
		Topology:       "RI(4)_SW(8)",
		BudgetGBps:     300,
		Jobs:           []JobSpec{tinyJob("a", 512), tinyJob("b", 256)},
		PartitionSteps: 4,
	}
}

func newEngine(t *testing.T) *core.Engine {
	t.Helper()
	e := core.NewEngine(core.EngineConfig{Workers: 4, CacheSize: 256})
	t.Cleanup(e.Close)
	return e
}

func fptr(v float64) *float64 { return &v }

func TestResolveErrors(t *testing.T) {
	neg := -1.0
	cases := map[string]*Spec{
		"unknown topology":  {Topology: "nope"},
		"unknown preset":    {Jobs: []JobSpec{{Preset: "nope"}}},
		"negative budget":   {BudgetGBps: -5},
		"bad budget axis":   {Budgets: []float64{100, -1}},
		"unknown policy":    {Policies: []string{"nope"}},
		"negative weight":   {Jobs: []JobSpec{{Preset: "GPT-3", Weight: &neg}}},
		"all weights zero":  {Jobs: []JobSpec{{Preset: "GPT-3", Weight: fptr(0)}}},
		"duplicate names":   {Jobs: []JobSpec{{Preset: "GPT-3"}, {Preset: "GPT-3"}}},
		"too many jobs":     {MaxJobs: 2, Jobs: []JobSpec{{Preset: "GPT-3"}, {Preset: "MSFT-1T"}, {Preset: "Turing-NLG"}}},
		"negative max jobs": {MaxJobs: -1},
		"steps below jobs": {Jobs: []JobSpec{{Preset: "GPT-3"}, {Preset: "MSFT-1T"}, {Preset: "Turing-NLG"}},
			PartitionSteps: 2},
		"steps above limit": {PartitionSteps: MaxPartitionSteps + 1},
		"negative steps without partition": {Policies: []string{PolicyGroupOpt},
			PartitionSteps: -1},
		"workload preset and transformer": {Jobs: []JobSpec{
			{Preset: "GPT-3", Transformer: &core.TransformerSpec{NumLayers: 1, Hidden: 8, SeqLen: 8}}}},
	}
	for name, spec := range cases {
		if _, err := spec.resolve(); err == nil {
			t.Errorf("%s: resolve should fail", name)
		} else if !errors.Is(err, core.ErrBadSpec) {
			t.Errorf("%s: error %v should wrap ErrBadSpec", name, err)
		}
	}
}

func TestZeroSpecDefaults(t *testing.T) {
	r, err := (&Spec{}).resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.topology != DefaultTopology || r.budget != DefaultBudgetGBps {
		t.Errorf("defaults = %s @ %v", r.topology, r.budget)
	}
	var names []string
	for _, j := range r.jobs {
		names = append(names, j.name)
		if j.weight != 1 {
			t.Errorf("job %s weight = %v, want 1", j.name, j.weight)
		}
	}
	if !reflect.DeepEqual(names, []string{"Turing-NLG", "GPT-3", "MSFT-1T"}) {
		t.Errorf("default jobs = %v", names)
	}
	if len(r.policies) != 3 {
		t.Errorf("default policies = %v", r.policies)
	}
	if len(r.group.Workloads) != 3 {
		t.Errorf("group workloads = %d", len(r.group.Workloads))
	}
	if r.steps != DefaultPartitionSteps {
		t.Errorf("partition steps = %d", r.steps)
	}
}

func TestParseSpecStrict(t *testing.T) {
	if _, err := core.DecodeStrict[Spec]([]byte(`{"jobs": [{"preset": "GPT-3"}], "bogus": 1}`), "cluster: bad spec"); err == nil {
		t.Error("unknown field should be rejected")
	}
	if _, err := core.DecodeStrict[Spec]([]byte(`{"jobs": [{"bogus": 1}]}`), "cluster: bad spec"); err == nil {
		t.Error("unknown job field should be rejected")
	}
	s, err := core.DecodeStrict[Spec]([]byte(`{}`), "cluster: bad spec")
	if err != nil || s == nil {
		t.Fatalf("empty spec should parse: %v", err)
	}
}

func TestSpecCanonicalFingerprint(t *testing.T) {
	implicit := &Spec{}
	explicit := &Spec{
		Topology:   "4D-4K",
		BudgetGBps: 1000,
		Jobs: []JobSpec{
			{Name: "Turing-NLG", Preset: "Turing-NLG", Weight: fptr(1)},
			{Preset: "GPT-3"},
			{Preset: "MSFT-1T"},
		},
		Policies:       []string{PolicyPerJobOpt, PolicyGroupOpt, PolicyPartition},
		PartitionSteps: DefaultPartitionSteps,
	}
	fpA, err := core.Digest(implicit.MarshalCanonical())
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := core.Digest(explicit.MarshalCanonical())
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Error("implicit and explicit default spellings should fingerprint identically")
	}

	for _, w := range []float64{2, 0} {
		reweighted := *explicit
		reweighted.Jobs = append([]JobSpec(nil), explicit.Jobs...)
		reweighted.Jobs[1].Weight = fptr(w)
		if fp, err := core.Digest(reweighted.MarshalCanonical()); err != nil || fp == fpA {
			t.Errorf("weight %v should fingerprint differently from weight 1 (%v)", w, err)
		}
	}

	// Canonicalization is idempotent.
	canon, err := tinySpec().MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	re, err := core.DecodeStrict[Spec](canon, "cluster: bad spec")
	if err != nil {
		t.Fatal(err)
	}
	canon2, err := re.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(canon) != string(canon2) {
		t.Errorf("canonicalization not idempotent:\n%s\n%s", canon, canon2)
	}

	// The budget elides only when re-derivable: a default budget next to
	// a budgets axis with a different maximum must stay spelled out.
	axis := &Spec{Jobs: []JobSpec{tinyJob("a", 512)}, Topology: "RI(4)_SW(8)",
		BudgetGBps: 1000, Budgets: []float64{200, 500}}
	data, err := axis.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"budget_gbps":1000`) {
		t.Errorf("canonical form lost the non-derivable budget:\n%s", data)
	}
}

func TestComputeNilSolver(t *testing.T) {
	if _, err := Compute(context.Background(), nil, tinySpec()); err == nil {
		t.Error("nil solver should error")
	}
}

func TestComputeCancellation(t *testing.T) {
	e := newEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compute(ctx, e, tinySpec()); err == nil {
		t.Error("canceled study should fail")
	}
}

func TestComputeEndToEndEngine(t *testing.T) {
	e := newEngine(t)
	spec := tinySpec()
	rep, err := Compute(context.Background(), e, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Topology == "" || rep.NPUs != 32 || rep.BudgetGBps != 300 {
		t.Errorf("header = %s/%d/%v", rep.Topology, rep.NPUs, rep.BudgetGBps)
	}
	if len(rep.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(rep.Jobs))
	}
	for i, j := range rep.Jobs {
		if j.Error != "" {
			t.Fatalf("job %s: %v", j.Name, j.Error)
		}
		if j.OwnOpt == nil || j.OwnTimeS <= 0 || j.EqualBWTimeS <= 0 || j.Fingerprint == "" {
			t.Errorf("job %d missing pricing: %+v", i, j)
		}
		// EqualBW can never beat the job's own optimized design.
		if j.EqualBWTimeS < j.OwnTimeS*(1-1e-9) {
			t.Errorf("job %s: EqualBW %v beats own-opt %v", j.Name, j.EqualBWTimeS, j.OwnTimeS)
		}
	}

	// Designs: one per job (job order) then the group design.
	if len(rep.Designs) != 3 {
		t.Fatalf("designs = %d", len(rep.Designs))
	}
	if rep.Designs[0].Name != "a" || rep.Designs[1].Name != "b" ||
		rep.Designs[2].Name != GroupDesignName {
		t.Fatalf("design order: %s, %s, %s", rep.Designs[0].Name, rep.Designs[1].Name, rep.Designs[2].Name)
	}
	group := rep.GroupDesign()
	if group == nil {
		t.Fatal("no group design")
	}
	for _, d := range rep.Designs {
		if d.Error != "" {
			t.Fatalf("design %s: %v", d.Name, d.Error)
		}
		for i, tm := range d.TimesS {
			if tm <= 0 {
				t.Errorf("design %s did not price job %d", d.Name, i)
			}
			// Cross-eval sanity bound: no shared design beats a job's own
			// optimum (up to solver slack).
			if own := rep.Jobs[i].OwnTimeS; tm < own*(1-1e-2) {
				t.Errorf("design %s prices job %d at %v, below own-opt %v", d.Name, i, tm, own)
			}
			if d.SlowdownVsOwnOpt[i] < 1-1e-2 {
				t.Errorf("design %s slowdown[%d] = %v < 1", d.Name, i, d.SlowdownVsOwnOpt[i])
			}
		}
		if d.WeightedTimeS <= 0 || d.MaxSlowdown < d.MeanSlowdown {
			t.Errorf("design %s aggregates: %+v", d.Name, d.Metrics)
		}
		if d.JainFairness <= 0 || d.JainFairness > 1+1e-9 {
			t.Errorf("design %s Jain index = %v", d.Name, d.JainFairness)
		}
	}
	// A job's own design prices it at exactly its own-optimal time.
	for i := 0; i < 2; i++ {
		if got, own := rep.Designs[i].TimesS[i], rep.Jobs[i].OwnTimeS; math.Abs(got-own) > own*1e-9 {
			t.Errorf("own design diagonal: %v vs %v", got, own)
		}
	}

	// Partition: shares exhaust the budget, one slice per job.
	p := rep.Partition
	if p == nil || p.Error != "" {
		t.Fatalf("partition = %+v", p)
	}
	if p.Steps != 4 || len(p.SharesGBps) != 2 || len(p.JobBW) != 2 {
		t.Fatalf("partition shape: %+v", p)
	}
	sum := 0.0
	for _, s := range p.SharesGBps {
		if s <= 0 {
			t.Errorf("empty share in %v", p.SharesGBps)
		}
		sum += s
	}
	if math.Abs(sum-300) > 1e-9*300 {
		t.Errorf("shares %v do not exhaust the budget", p.SharesGBps)
	}
	// Sharing the whole fabric dominates splitting it: the group design
	// gives every job the full budget, so (up to solver slack) the group
	// objective can't lose to any partition.
	if group.WeightedTimeS > p.WeightedTimeS*(1+2e-2) {
		t.Errorf("group %v worse than partition %v", group.WeightedTimeS, p.WeightedTimeS)
	}

	// Summary: one row per policy, canonical order.
	if len(rep.Summary) != 3 {
		t.Fatalf("summary = %+v", rep.Summary)
	}
	for i, policy := range []string{PolicyGroupOpt, PolicyPartition, PolicyPerJobOpt} {
		if rep.Summary[i].Policy != policy {
			t.Errorf("summary[%d] = %s, want %s", i, rep.Summary[i].Policy, policy)
		}
		if rep.Summary[i].WeightedTimeS <= 0 {
			t.Errorf("summary %s unpriced", policy)
		}
	}
	if rep.Solves == 0 || rep.ElapsedMS <= 0 {
		t.Errorf("accounting: %d solves, %v ms", rep.Solves, rep.ElapsedMS)
	}

	// A repeat study is answered entirely from the fingerprint cache.
	rep2, err := Compute(context.Background(), e, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Solves != 0 || rep2.CacheHits == 0 {
		t.Errorf("repeat study: %d solves, %d hits", rep2.Solves, rep2.CacheHits)
	}
	if rep2.GroupDesign().WeightedTimeS != group.WeightedTimeS {
		t.Error("cached study diverged")
	}

	// The report is JSON-serializable with errors traveling as strings.
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report does not marshal: %v", err)
	}
}

func TestComputeBudgetAxis(t *testing.T) {
	e := newEngine(t)
	spec := tinySpec()
	spec.BudgetGBps = 0 // defaulted to the axis maximum
	spec.Budgets = []float64{300, 150}
	spec.Policies = []string{PolicyGroupOpt}
	rep, err := Compute(context.Background(), e, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BudgetGBps != 300 {
		t.Errorf("budget = %v, want axis max 300", rep.BudgetGBps)
	}
	fr := rep.Frontier
	if fr == nil || len(fr.Points) != 2 {
		t.Fatalf("frontier = %+v", fr)
	}
	for _, pt := range fr.Points {
		if pt.Error != "" {
			t.Fatalf("budget %v: %v", pt.BudgetGBps, pt.Error)
		}
	}
	if len(fr.EqualBW) != 2 {
		t.Errorf("frontier EqualBW curve has %d points", len(fr.EqualBW))
	}
	// The axis shares the study's solver: the 300 GB/s point duplicates
	// the group solve, so at least one frontier point is a cache hit.
	if fr.CacheHits == 0 {
		t.Error("frontier did not reuse the study's group solve")
	}
}

func TestWeightZeroJobDoesNotShapeGroup(t *testing.T) {
	e := newEngine(t)
	shared := &Spec{
		Topology:   "RI(4)_SW(8)",
		BudgetGBps: 300,
		Jobs:       []JobSpec{tinyJob("a", 512), tinyJob("b", 256)},
		Policies:   []string{PolicyGroupOpt},
	}
	shared.Jobs[1].Weight = fptr(0)
	alone := &Spec{
		Topology:   "RI(4)_SW(8)",
		BudgetGBps: 300,
		Jobs:       []JobSpec{tinyJob("a", 512)},
		Policies:   []string{PolicyGroupOpt},
	}
	repShared, err := Compute(context.Background(), e, shared)
	if err != nil {
		t.Fatal(err)
	}
	repAlone, err := Compute(context.Background(), e, alone)
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := repShared.GroupDesign(), repAlone.GroupDesign()
	if g1 == nil || g2 == nil {
		t.Fatal("missing group design")
	}
	if !reflect.DeepEqual(g1.BW, g2.BW) {
		t.Errorf("weight-0 job changed the group design: %v vs %v", g1.BW, g2.BW)
	}
	// The scavenger is still priced and appears in fairness, but not in
	// the weighted aggregate.
	if g1.TimesS[1] <= 0 {
		t.Error("weight-0 job not priced on the group design")
	}
	if math.Abs(g1.WeightedTimeS-g1.TimesS[0]) > 1e-12*g1.TimesS[0] {
		t.Errorf("weight-0 job leaked into the objective: %v vs %v", g1.WeightedTimeS, g1.TimesS[0])
	}
}

func TestSpeedupScaleInvariance(t *testing.T) {
	// With compute time forced to ~0 the model is purely bandwidth-bound,
	// so scaling the budget by k scales every time by 1/k and speedups
	// over EqualBW are invariant (up to solver slack).
	e := newEngine(t)
	base := &Spec{
		Topology:   "RI(4)_SW(8)",
		BudgetGBps: 300,
		Jobs:       []JobSpec{tinyJob("a", 512), tinyJob("b", 256)},
		Policies:   []string{PolicyGroupOpt, PolicyPerJobOpt},
		Compute:    &core.ComputeSpec{EffectiveTFLOPS: 1e9, MemoryBWGBps: 1e12},
	}
	scaled := *base
	scaled.BudgetGBps = 3 * base.BudgetGBps
	repA, err := Compute(context.Background(), e, base)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := Compute(context.Background(), e, &scaled)
	if err != nil {
		t.Fatal(err)
	}
	for di := range repA.Designs {
		a, b := repA.Designs[di], repB.Designs[di]
		for i := range a.SpeedupVsEqualBW {
			sa, sb := a.SpeedupVsEqualBW[i], b.SpeedupVsEqualBW[i]
			if sa <= 0 || sb <= 0 {
				t.Fatalf("design %s job %d unpriced: %v, %v", a.Name, i, sa, sb)
			}
			if rel := math.Abs(sa-sb) / sa; rel > 2e-2 {
				t.Errorf("design %s job %d speedup not scale-invariant: %v vs %v", a.Name, i, sa, sb)
			}
		}
	}
}

// errSolver fails every optimization whose first workload matches a
// name, exercising the in-place error paths.
type errSolver struct {
	inner *core.Engine
	fail  string
}

func (s *errSolver) Column(spec *core.ProblemSpec) (core.Column, error) {
	c, err := s.inner.Column(spec)
	if err != nil {
		return nil, err
	}
	if tr := spec.Workloads[0].Transformer; tr != nil && tr.Name == s.fail {
		return failColumn{c, errors.New("solver down for " + s.fail)}, nil
	}
	return c, nil
}

// failColumn fails every point of an otherwise real column.
type failColumn struct {
	core.Column
	err error
}

func (c failColumn) Optimize(ctx context.Context, budget float64, warm []float64) (core.EngineResult, error) {
	return core.EngineResult{}, c.err
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

// Without a budget axis a study opens each problem once: one column per
// job, which serves its own design, its partition shares and its
// cross-pricing, plus the group's.
func TestComputeOpensOneColumnPerSpec(t *testing.T) {
	cc := &columnCounter{inner: newEngine(t)}
	spec := tinySpec()
	if _, err := Compute(context.Background(), cc, spec); err != nil {
		t.Fatal(err)
	}
	if got, want := cc.n.Load(), int64(len(spec.Jobs)+1); got != want {
		t.Errorf("study opened %d columns, want %d (jobs + group)", got, want)
	}
}

// A budget axis whose maximum is below the group problem's dimension
// floors fails the study as a bad spec before any column opens.
func TestComputeRefusesBudgetAxisBelowFloor(t *testing.T) {
	cc := &columnCounter{inner: newEngine(t)}
	spec := tinySpec()
	spec.Budgets = []float64{0.05, 0.1} // 2 dims at the 0.1 GB/s floor need 0.2
	_, err := Compute(context.Background(), cc, spec)
	if !errors.Is(err, core.ErrBadSpec) || !strings.Contains(err.Error(), "cluster: budget axis") ||
		!strings.Contains(err.Error(), "floor") {
		t.Fatalf("err = %v, want a bad-spec budget-axis floor error", err)
	}
	if n := cc.n.Load(); n != 0 {
		t.Errorf("study opened %d columns before refusing its budget axis, want 0", n)
	}
}

func TestComputePerJobErrorsInPlace(t *testing.T) {
	e := newEngine(t)
	// Job "b" fails: its own-opt and every partition cell for it error,
	// but the group solve (first workload "a") and job "a" survive.
	rep, err := Compute(context.Background(), &errSolver{inner: e, fail: "b"}, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs[0].Error != "" || rep.Jobs[1].Error == "" {
		t.Fatalf("job errors: %q / %q", rep.Jobs[0].Error, rep.Jobs[1].Error)
	}
	// b's own design fails in place; the group design still prices both.
	if rep.Designs[1].Error == "" {
		t.Error("failed job's design should carry its error")
	}
	g := rep.GroupDesign()
	if g == nil || g.TimesS[0] <= 0 || g.TimesS[1] <= 0 {
		t.Fatalf("group design = %+v", g)
	}
	// Without b's own-opt there is no slowdown denominator for b.
	if g.SlowdownVsOwnOpt[1] != 0 || g.SlowdownVsOwnOpt[0] <= 0 {
		t.Errorf("slowdowns = %v", g.SlowdownVsOwnOpt)
	}
	// No feasible split exists when one job's whole share column fails.
	if rep.Partition == nil || rep.Partition.Error == "" {
		t.Fatalf("partition = %+v", rep.Partition)
	}
	// Summary keeps the surviving policies only.
	for _, row := range rep.Summary {
		if row.Policy == PolicyPartition {
			t.Error("infeasible partition should not be summarized")
		}
	}
}

func TestProgressMonotonic(t *testing.T) {
	e := newEngine(t)
	var mu sync.Mutex
	last := map[string]core.Progress{}
	ctx := core.WithProgress(context.Background(), func(p core.Progress) {
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := last[p.Stage]; ok && p.Done < prev.Done {
			t.Errorf("stage %s regressed: %d after %d", p.Stage, p.Done, prev.Done)
		}
		last[p.Stage] = p
	})
	spec := tinySpec()
	spec.Budgets = []float64{300, 150}
	if _, err := Compute(ctx, e, spec); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	cl, ok := last["cluster"]
	if !ok || cl.Done != cl.Total || cl.Total == 0 {
		t.Errorf("cluster stage = %+v", cl)
	}
	fr, ok := last["cluster-frontier"]
	if !ok || fr.Done != fr.Total || fr.Total != 2 {
		t.Errorf("cluster-frontier stage = %+v", fr)
	}
	if _, leaked := last["frontier"]; leaked {
		t.Error("inner frontier stage leaked through unrelabeled")
	}
}

// A share grid whose largest slice cannot cover the dimension floors
// fails every cell of its column: the partition finds no split, and the
// cluster stage still lands every cell.
func TestPartitionColumnBelowFloors(t *testing.T) {
	e := newEngine(t)
	var mu sync.Mutex
	var last core.Progress
	ctx := core.WithProgress(context.Background(), func(p core.Progress) {
		mu.Lock()
		defer mu.Unlock()
		if p.Stage != "cluster" {
			t.Errorf("stage %q reached the watcher", p.Stage)
		}
		last = p
	})
	spec := tinySpec()
	spec.BudgetGBps = 0.3 // two dims need 0.2 GB/s; each 0.15 GB/s slice falls short
	spec.PartitionSteps = 2
	rep, err := Compute(ctx, e, spec)
	if err != nil {
		t.Fatal(err)
	}
	if p := rep.Partition; p == nil || p.Error == "" || p.SharesGBps != nil {
		t.Errorf("partition = %+v, want a no-split error", p)
	}
	mu.Lock()
	defer mu.Unlock()
	if last.Total == 0 || last.Done != last.Total {
		t.Errorf("cluster stage = %+v, want every cell landed", last)
	}
}
