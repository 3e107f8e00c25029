package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"libra/internal/opt"
	"libra/internal/topology"
	"libra/internal/workload"
)

// Spec → Problem → Spec must be byte-identical for every Table III
// topology × Table II workload combination that builds (MSFT-1T's TP=128
// legitimately cannot map onto the 64-NPU 3D-Torus).
func TestSpecRoundTripPresetMatrix(t *testing.T) {
	built := 0
	for _, topo := range topology.PresetNames() {
		for _, wl := range workload.PresetNames() {
			spec := &ProblemSpec{
				Topology:   topo,
				Workloads:  []WorkloadSpec{{Preset: wl}},
				BudgetGBps: 500,
			}
			p, err := spec.Build()
			if err != nil {
				if strings.Contains(err.Error(), "divide") {
					continue // workload strategy does not fit this NPU count
				}
				t.Fatalf("%s × %s: Build: %v", topo, wl, err)
			}
			built++
			s1, err := p.Spec()
			if err != nil {
				t.Fatalf("%s × %s: Spec: %v", topo, wl, err)
			}
			b1, err := json.Marshal(s1)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := s1.Build()
			if err != nil {
				t.Fatalf("%s × %s: rebuild: %v", topo, wl, err)
			}
			s2, err := p2.Spec()
			if err != nil {
				t.Fatal(err)
			}
			b2, err := json.Marshal(s2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Errorf("%s × %s: round-trip not byte-identical:\n  %s\n  %s", topo, wl, b1, b2)
			}
		}
	}
	if built < 20 {
		t.Fatalf("only %d combinations built; expected most of the %d×%d matrix",
			built, len(topology.PresetNames()), len(workload.PresetNames()))
	}
}

// A fully-loaded spec (custom transformer, constraints, overrides) must
// survive the round trip and keep a stable fingerprint.
func TestSpecRoundTripFullyLoaded(t *testing.T) {
	spec := &ProblemSpec{
		Topology:   "RI(4)_FC(8)_RI(4)_SW(32)",
		BudgetGBps: 800,
		Objective:  "perf-per-cost",
		Loop:       "tp-dp-overlap",
		OptPolicy:  "ideal-full-dims",
		MinDimBW:   0.5,
		InNetwork:  []bool{false, false, false, true},
		Workloads: []WorkloadSpec{
			{Preset: "GPT-3", Weight: 3},
			{Transformer: &TransformerSpec{
				Name: "my-llm", NumLayers: 24, Hidden: 2048, SeqLen: 2048,
				TP: 16, Minibatch: 8,
			}, Weight: 2},
		},
		Constraints: []ConstraintSpec{
			DimCap(4, 50),
			OrderedDims(1, 2),
			PairSum(2, 3, 300),
		},
		Solver: &SolverSpec{Starts: 3, Seed: 7},
	}
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The inferred DP must cover the remaining NPUs.
	if got := p.Targets[1].Workload.Strategy; got.TP != 16 || got.DP != 4096/16 {
		t.Fatalf("transformer strategy = %v", got)
	}
	s1, err := p.Spec()
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(s1)
	p2, err := s1.Build()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p2.Spec()
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(s2)
	if !bytes.Equal(b1, b2) {
		t.Errorf("round-trip not byte-identical:\n  %s\n  %s", b1, b2)
	}

	fp1, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := s1.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Errorf("fingerprint changed across round trip: %s vs %s", fp1, fp2)
	}
}

// Golden JSON: the canonical serialization of a representative spec is
// pinned so accidental schema changes fail loudly.
func TestSpecGoldenJSON(t *testing.T) {
	const golden = `{"topology":"4D-4K","workloads":[{"preset":"GPT-3"},{"preset":"MSFT-1T","weight":2}],"budget_gbps":500,"objective":"perf-per-cost","constraints":[{"kind":"dim-cap","dim":4,"value":50}]}`
	spec, err := ParseSpec([]byte(golden))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := spec.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(canon) != golden {
		t.Errorf("canonical form drifted:\n  want %s\n  got  %s", golden, canon)
	}
}

// Different spellings of the same instance must fingerprint identically;
// different instances must not.
func TestSpecFingerprintCanonicalization(t *testing.T) {
	a := &ProblemSpec{Topology: "4D-4K", Workloads: []WorkloadSpec{{Preset: "GPT-3"}}, BudgetGBps: 500, Objective: "ppc"}
	b := &ProblemSpec{Topology: "4D-4K", Workloads: []WorkloadSpec{{Preset: "GPT-3"}}, BudgetGBps: 500, Objective: "perf-per-cost"}
	c := &ProblemSpec{Topology: "4D-4K", Workloads: []WorkloadSpec{{Preset: "GPT-3"}}, BudgetGBps: 501, Objective: "perf-per-cost"}
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fc, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Errorf("spelling variants fingerprint differently: %s vs %s", fa, fb)
	}
	if fa == fc {
		t.Errorf("distinct budgets share a fingerprint: %s", fa)
	}
}

// Solver strategy keys must canonicalize: the default projected-gradient
// spells as an absent strategy, short forms normalize, and unknown
// strategies fail Build.
func TestSpecSolverStrategy(t *testing.T) {
	mk := func(strategy string) *ProblemSpec {
		return &ProblemSpec{
			Topology:   "3D-512",
			Workloads:  []WorkloadSpec{{Preset: "GPT-3"}},
			BudgetGBps: 400,
			Solver:     &SolverSpec{Seed: 3, Strategy: strategy},
		}
	}
	p, err := mk("cd").Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Solver.Strategy != opt.StrategyCoordinateDescent {
		t.Fatalf("strategy = %q", p.Solver.Strategy)
	}
	s, err := p.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if s.Solver == nil || s.Solver.Strategy != "coordinate-descent" {
		t.Errorf("round-tripped solver = %+v", s.Solver)
	}

	// "pgd" and the empty default are the same instance.
	fpDefault, err := mk("").Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpPGD, err := mk("pgd").Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpCD, err := mk("cd").Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpDefault != fpPGD {
		t.Errorf("pgd and default fingerprint differently: %s vs %s", fpPGD, fpDefault)
	}
	if fpCD == fpDefault {
		t.Error("coordinate descent shares the default fingerprint")
	}

	if _, err := mk("annealing").Build(); err == nil {
		t.Error("unknown strategy should fail Build")
	}

	// An alias set directly on the problem (bypassing Build's
	// normalization) must still serialize canonically, and an invalid
	// strategy must fail Spec() instead of silently dropping to the
	// default.
	p2, err := mk("").Build()
	if err != nil {
		t.Fatal(err)
	}
	p2.Solver.Strategy = "cd"
	s2, err := p2.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if s2.Solver == nil || s2.Solver.Strategy != "coordinate-descent" {
		t.Errorf("alias 'cd' serialized as %+v", s2.Solver)
	}
	p2.Solver.Strategy = "nope"
	if _, err := p2.Spec(); err == nil {
		t.Error("invalid strategy should fail Spec")
	}
}

// ParseSpec must reject unknown fields (typo protection).
func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"topology":"4D-4K","wrkloads":[{"preset":"GPT-3"}]}`)); err == nil {
		t.Fatal("expected error for unknown field")
	}
}

// The spec-built problem and the classic construction path must price
// design points identically, and declarative constraints must bind.
func TestSpecBuildMatchesClassicPath(t *testing.T) {
	spec := &ProblemSpec{
		Topology:    "4D-4K",
		Workloads:   []WorkloadSpec{{Preset: "GPT-3"}},
		BudgetGBps:  500,
		Constraints: []ConstraintSpec{DimCap(4, 20)},
	}
	fromSpec, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.GPT3(4096)
	if err != nil {
		t.Fatal(err)
	}
	classic := NewProblem(topology.FourD4K(), 500, w)
	classic.Constraints = []ConstraintSpec{DimCap(4, 20)}

	bw := topology.EqualBW(500, 4)
	r1, err := fromSpec.Evaluate(bw)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := classic.Evaluate(bw)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r1.WeightedTime, r2.WeightedTime, 1e-12) || !approx(r1.Cost, r2.Cost, 1e-12) {
		t.Errorf("spec path diverges: %+v vs %+v", r1, r2)
	}

	opt, err := fromSpec.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if opt.BW[3] > 20+1e-6 {
		t.Errorf("dim-cap constraint ignored: dim 4 got %v GB/s", opt.BW[3])
	}
}

// A problem built by NewProblem + AddTarget + field assignment must record
// provenance, so it serializes to the same fingerprint as the equivalent
// ProblemSpec literal and survives Spec → Build → Spec unchanged.
func TestFieldBuiltProblemIsSerializable(t *testing.T) {
	net := topology.FourD4K()
	p := NewProblem(net, 500)
	for _, tw := range []struct {
		name   string
		weight float64
	}{{"GPT-3", 1}, {"MSFT-1T", 2}} {
		w, err := workload.Preset(tw.name, net.NPUs())
		if err != nil {
			t.Fatal(err)
		}
		p.AddTarget(w, tw.weight)
	}
	p.Objective = PerfPerCostOpt
	p.SkipBudget = true
	p.Constraints = []ConstraintSpec{DimCap(4, 50), DollarBudget(15e6)}

	s, err := p.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != 2 || s.Workloads[0].Preset != "GPT-3" || s.Workloads[1].Weight != 2 {
		t.Errorf("workload specs = %+v", s.Workloads)
	}
	if s.Objective != "perf-per-cost" || !s.SkipBudget || len(s.Constraints) != 2 {
		t.Errorf("spec = %+v", s)
	}
	want, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	literal := &ProblemSpec{
		Topology:    "4D-4K",
		BudgetGBps:  500,
		SkipBudget:  true,
		Objective:   "perf-per-cost",
		Workloads:   []WorkloadSpec{{Preset: "GPT-3"}, {Preset: "MSFT-1T", Weight: 2}},
		Constraints: []ConstraintSpec{DimCap(4, 50), DollarBudget(15e6)},
	}
	if got, err := literal.Fingerprint(); err != nil || got != want {
		t.Errorf("literal spec fingerprint = %s, %v; field-built %s", got, err, want)
	}
	p2, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p2.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Fingerprint(); err != nil || got != want {
		t.Errorf("fingerprint after Spec → Build → Spec = %s, %v; want %s", got, err, want)
	}
}
