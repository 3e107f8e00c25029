package validate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"libra/internal/collective"
	"libra/internal/core"
	"libra/internal/sim"
	"libra/internal/topology"
)

func newEngine(t *testing.T) *core.Engine {
	t.Helper()
	e := core.NewEngine(core.EngineConfig{})
	t.Cleanup(e.Close)
	return e
}

// TestDefaultMatrixConformance is the headline check: the analytical
// model and the simulators agree within the committed tolerance on every
// evaluated scenario of the default matrix, skips carry reasons, and a
// repeated run is answered entirely from the engine cache.
func TestDefaultMatrixConformance(t *testing.T) {
	e := newEngine(t)
	rep, err := Compute(context.Background(), e, &Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("matrix has %d failed scenarios", rep.Failed)
	}
	if !rep.Pass {
		t.Fatalf("default matrix fails its own tolerance %.3f (mean %.4f, max %.4f at %s)",
			rep.Tolerance, rep.MeanAbsRelErr, rep.MaxAbsRelErr, rep.WorstID)
	}
	if rep.Evaluated == 0 || rep.Skipped == 0 {
		t.Fatalf("expected both evaluated and skipped scenarios, got %d/%d", rep.Evaluated, rep.Skipped)
	}
	if rep.MeanAbsRelErr > rep.Tolerance {
		t.Fatalf("mean |rel err| %.4f exceeds tolerance %.3f", rep.MeanAbsRelErr, rep.Tolerance)
	}
	for _, sc := range rep.Scenarios {
		if sc.Skipped {
			if sc.Reason == "" {
				t.Errorf("%s: skipped without a reason", sc.ID)
			}
			continue
		}
		if !sc.Within {
			t.Errorf("%s: |rel err| %.4f / dim-busy %.4f outside tolerance %.3f",
				sc.ID, math.Abs(sc.RelErr), sc.DimBusyMaxRelErr, rep.Tolerance)
		}
		// The chunk-pipeline and transfer-DAG schedules can never beat
		// the analytical bandwidth bound.
		if sc.RelErr < -1e-9 {
			t.Errorf("%s: simulator beat the analytical bound (rel err %v)", sc.ID, sc.RelErr)
		}
	}
	if rep.Solves != rep.Evaluated || rep.CacheHits != 0 {
		t.Fatalf("first run: solves %d / hits %d, want %d / 0", rep.Solves, rep.CacheHits, rep.Evaluated)
	}

	rep2, err := Compute(context.Background(), e, &Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CacheHits != rep2.Evaluated || rep2.Solves != 0 {
		t.Fatalf("second run: solves %d / hits %d, want 0 / %d", rep2.Solves, rep2.CacheHits, rep2.Evaluated)
	}
}

// TestBaselineByteStable locks the golden-report form: two independent
// runs (fresh engines) project to byte-identical baselines, and the
// baseline carries no volatile fields.
func TestBaselineByteStable(t *testing.T) {
	run := func() []byte {
		rep, err := Compute(context.Background(), newEngine(t), &Spec{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(rep.Baseline(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("baseline is not byte-stable across runs")
	}
	for _, banned := range []string{"elapsed", "cached", "cache_hits", "solves"} {
		if strings.Contains(string(a), banned) {
			t.Fatalf("baseline JSON carries volatile field %q", banned)
		}
	}
}

// TestWidenedDivergenceFailsGate coarsens the transfer-DAG chunking so
// the All-to-All pipeline bubble widens past the tolerance — the gate
// must trip, scenario-level and aggregate.
func TestWidenedDivergenceFailsGate(t *testing.T) {
	rep, err := Compute(context.Background(), newEngine(t), &Spec{
		Topologies:     []string{topology.Name3DTorus},
		Collectives:    []string{"alltoall"},
		Workloads:      []string{"DLRM"},
		NPULevelChunks: 2, // bubble ≈ (stages−1)/chunks = 100% of the bound
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("widened divergence passed the gate (mean %.4f, max %.4f)", rep.MeanAbsRelErr, rep.MaxAbsRelErr)
	}
	found := false
	for _, sc := range rep.Scenarios {
		if sc.Path == PathTransferDAG && !sc.Skipped && sc.Error == "" {
			found = true
			if sc.Within {
				t.Errorf("%s: rel err %.4f marked within tolerance %.3f", sc.ID, sc.RelErr, rep.Tolerance)
			}
			if sc.RelErr < rep.Tolerance {
				t.Errorf("%s: expected a divergence beyond %.3f, got %.4f", sc.ID, rep.Tolerance, sc.RelErr)
			}
		}
	}
	if !found {
		t.Fatal("no transfer-DAG scenario was evaluated")
	}
}

// TestInNetworkSkips: in-network offload is analytical-only, so
// All-Reduce-bearing scenarios on switch-bearing topologies are skipped
// with that reason, while All-Reduce-free scenarios (DLRM, All-to-All)
// still validate; ring-only topologies have nothing to offload.
func TestInNetworkSkips(t *testing.T) {
	rep, err := Compute(context.Background(), newEngine(t), &Spec{
		Topologies: []string{topology.Name3D512}, // all-switch topology
		Workloads:  []string{"GPT-3", "DLRM"},
		InNetwork:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]Scenario{}
	for _, sc := range rep.Scenarios {
		byID[sc.ID] = sc
	}
	ar := byID["collective/3D-512/allreduce/pipeline"]
	if !ar.Skipped || !strings.Contains(ar.Reason, "in-network") {
		t.Errorf("in-network All-Reduce should skip, got %+v", ar)
	}
	gpt := byID["iteration/3D-512/GPT-3/no-overlap"]
	if !gpt.Skipped || !strings.Contains(gpt.Reason, "in-network") {
		t.Errorf("GPT-3 (All-Reduce TP traffic) should skip under in-network, got %+v", gpt)
	}
	dlrm := byID["iteration/3D-512/DLRM/no-overlap"]
	if dlrm.Skipped {
		t.Errorf("DLRM issues no All-Reduce; should validate under in-network, got skip %q", dlrm.Reason)
	}
	rs := byID["collective/3D-512/reducescatter/pipeline"]
	if rs.Skipped {
		t.Errorf("Reduce-Scatter is unaffected by in-network offload, got skip %q", rs.Reason)
	}

	// A pure ring topology has no switch to offload: nothing skips.
	ring, err := Compute(context.Background(), newEngine(t), &Spec{
		Topologies: []string{topology.Name3DTorus},
		Workloads:  []string{"DLRM"},
		InNetwork:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range ring.Scenarios {
		if sc.Skipped && strings.Contains(sc.Reason, "in-network") {
			t.Errorf("%s: skipped for in-network on a switchless topology", sc.ID)
		}
	}
}

// TestFullySkippedMatrixCannotPass: a spec whose every scenario skips
// validated nothing — the gate must not report vacuous conformance.
func TestFullySkippedMatrixCannotPass(t *testing.T) {
	rep, err := Compute(context.Background(), newEngine(t), &Spec{
		Topologies:  []string{topology.Name3D512}, // all-switch topology
		Workloads:   []string{"GPT-3"},            // All-Reduce TP+DP traffic
		Collectives: []string{"allreduce"},
		InNetwork:   true, // every scenario skips: sims cannot model offload
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evaluated != 0 || rep.Skipped != len(rep.Scenarios) {
		t.Fatalf("expected a fully-skipped matrix, got %d evaluated / %d skipped", rep.Evaluated, rep.Skipped)
	}
	if rep.Pass {
		t.Fatal("zero evaluated scenarios reported a passing conformance gate")
	}
}

// TestIterationKeysIgnoreCollectivePayload: iteration outcomes do not
// depend on the raw-collective payload, so a run differing only in
// collective_bytes must reuse the cached iteration simulations.
func TestIterationKeysIgnoreCollectivePayload(t *testing.T) {
	e := newEngine(t)
	spec := &Spec{Topologies: []string{topology.Name3DTorus}, Workloads: []string{"DLRM"}}
	if _, err := Compute(context.Background(), e, spec); err != nil {
		t.Fatal(err)
	}
	other := *spec
	other.CollectiveBytes = 5e8
	rep, err := Compute(context.Background(), e, &other)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range rep.Scenarios {
		if sc.Skipped || sc.Error != "" {
			continue
		}
		switch sc.Kind {
		case KindIteration:
			if !sc.Cached {
				t.Errorf("%s: iteration outcome recomputed despite only the collective payload changing", sc.ID)
			}
		case KindCollective:
			if sc.Cached {
				t.Errorf("%s: collective outcome served from cache despite a different payload", sc.ID)
			}
		}
	}
}

// TestUnmappableWorkloadSkips: MSFT-1T's TP=128 cannot divide a 64-NPU
// torus — reported as a skip, never an error.
func TestUnmappableWorkloadSkips(t *testing.T) {
	rep, err := Compute(context.Background(), newEngine(t), &Spec{
		Topologies: []string{topology.Name3DTorus},
		Workloads:  []string{"MSFT-1T"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range rep.Scenarios {
		if sc.Kind != KindIteration {
			continue
		}
		if !sc.Skipped || !strings.Contains(sc.Reason, "TP=128") {
			t.Errorf("%s: want TP=128 divisibility skip, got %+v", sc.ID, sc)
		}
	}
}

func TestSpecFingerprintCanonicalization(t *testing.T) {
	fp := func(s *Spec) string {
		t.Helper()
		f, err := core.Digest(s.MarshalCanonical())
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	base := fp(&Spec{})
	same := []*Spec{
		{Topologies: DefaultTopologies(), Workloads: DefaultWorkloads()},
		{Loops: []string{"nooverlap", "overlap"}},
		{Collectives: []string{"ar", "a2a", "rs", "ag"}},
		{Collectives: []string{"allreduce", "allreduce", "alltoall", "reducescatter", "allgather"}},
		{BudgetGBps: DefaultBudgetGBps, Chunks: 64, Tolerance: DefaultTolerance},
		{Topologies: []string{"4D-4K", "3D-Torus", "3D-512"}}, // reordered set
	}
	for i, s := range same {
		if got := fp(s); got != base {
			t.Errorf("spelling %d: fingerprint %s != default %s", i, got, base)
		}
	}
	diff := []*Spec{
		{Tolerance: 0.5},
		{BudgetGBps: 100},
		{Collectives: []string{"allreduce"}},
		{Topologies: []string{"3D-Torus"}},
		{InNetwork: true},
		{Chunks: 32},
		{NPULevelChunks: 8},
		{NPULevelMaxNPUs: 64},
		{CollectiveBytes: 2e9},
	}
	for i, s := range diff {
		if got := fp(s); got == base {
			t.Errorf("variant %d: fingerprint should differ from default", i)
		}
	}

	// Canonical form is idempotent: re-parsing the canonical bytes and
	// canonicalizing again is a fixed point.
	canon, err := (&Spec{Collectives: []string{"ar", "rs", "ag", "a2a"}, Loops: []string{"overlap", "nooverlap"}}).MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := core.DecodeStrict[Spec](canon, "validate: bad spec")
	if err != nil {
		t.Fatal(err)
	}
	canon2, err := reparsed.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(canon) != string(canon2) {
		t.Fatalf("canonical form is not idempotent:\n%s\n%s", canon, canon2)
	}
}

func TestSpecErrors(t *testing.T) {
	bad := []*Spec{
		{BudgetGBps: -1},
		{CollectiveBytes: -5},
		{Chunks: -1},
		{NPULevelChunks: -2},
		{NPULevelMaxNPUs: -1},
		{Tolerance: -0.1},
		{Loops: []string{"sideways"}},
		{Collectives: []string{"broadcast"}},
		{Topologies: []string{"definitely-not-a-topology"}},
	}
	for i, s := range bad {
		if _, err := Compute(context.Background(), newEngine(t), s); !errors.Is(err, core.ErrBadSpec) {
			t.Errorf("bad spec %d: want ErrBadSpec, got %v", i, err)
		}
	}
	if _, err := core.DecodeStrict[Spec]([]byte(`{"topolgies": []}`), "validate: bad spec"); err == nil {
		t.Error("unknown field should fail strict parsing")
	}
	if _, err := core.DecodeStrict[Spec]([]byte(`{broken`), "validate: bad spec"); err == nil {
		t.Error("malformed JSON should fail")
	}
	if _, err := Compute(context.Background(), nil, &Spec{}); err == nil {
		t.Error("nil runner should fail")
	}
}

// A run is bounded by core.MaxPoints scenarios: exactly at the bound
// resolves, one over is a bad_spec error naming the bound, and the bound
// is checked before any topology is parsed. Workload names are not
// vetted at resolve time, so distinct names size the matrix cheaply:
// one topology × (2 × 4 collectives + workloads × loops) scenarios.
func TestScenarioBound(t *testing.T) {
	workloads := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("w%d", i)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		spec *Spec
		fail bool
	}{
		{"at the bound", &Spec{Topologies: []string{"3D-Torus"}, Workloads: workloads(2044)}, false},
		{"one over", &Spec{Topologies: []string{"3D-Torus"}, Workloads: workloads(4089), Loops: []string{"no-overlap"}}, true},
		{"one over, bad topology", &Spec{Topologies: []string{"definitely-not-a-topology"}, Workloads: workloads(4089), Loops: []string{"no-overlap"}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.resolve()
			if !tc.fail {
				if err != nil {
					t.Fatalf("resolve: %v", err)
				}
				return
			}
			if !errors.Is(err, core.ErrBadSpec) {
				t.Fatalf("want ErrBadSpec, got %v", err)
			}
			if want := "4097 scenarios exceed the 4096-scenario limit"; !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		})
	}
}

// Simulation size is bounded before any scenario runs: the pipeline's
// chunk count by MaxChunks, and every transfer DAG the matrix would
// simulate by MaxNPULevelTransfers. At each bound the spec resolves; one
// over is a bad_spec error naming the bound. RI(2)^4 All-Reduce sends
// 16 NPUs × 8 stage-shards = 128 transfers per chunk, so 512 chunks sit
// exactly on the transfer bound.
func TestSimulationSizeBound(t *testing.T) {
	const ri2x4 = "RI(2)_RI(2)_RI(2)_RI(2)"
	for _, tc := range []struct {
		name string
		spec *Spec
		want string // error substring; "" resolves
	}{
		{"chunks at the bound", &Spec{Topologies: []string{"3D-Torus"}, Chunks: MaxChunks}, ""},
		{"chunks one over", &Spec{Topologies: []string{"3D-Torus"}, Chunks: MaxChunks + 1},
			"chunk count 1025 exceeds the 1024-chunk limit"},
		{"transfers at the bound", &Spec{Topologies: []string{ri2x4}, NPULevelChunks: 512}, ""},
		{"transfers one chunk over", &Spec{Topologies: []string{ri2x4}, NPULevelChunks: 513},
			"transfer-DAG scenario RI(2)_RI(2)_RI(2)_RI(2)/allreduce needs 65664 transfers, over the 65536-transfer limit"},
		{"NPU cap raised over default topologies", &Spec{NPULevelMaxNPUs: 4096},
			"transfer-DAG scenario 3D-512/reducescatter needs 204800 transfers, over the 65536-transfer limit"},
		{"one wide dimension at default chunks", &Spec{Topologies: []string{"FC(128)"}},
			"transfer-DAG scenario FC(128)/reducescatter needs 260096 transfers, over the 65536-transfer limit"},
		{"huge chunk count", &Spec{Topologies: []string{"3D-Torus"}, NPULevelChunks: math.MaxInt},
			"over the 65536-transfer limit"},
		// Scenarios that would be skipped are never simulated, so they
		// cannot exceed the bound.
		{"over the NPU cap", &Spec{Topologies: []string{"4D-4K"}}, ""},
		{"in-network All-Reduce", &Spec{Topologies: []string{"SW(8)_SW(16)"}, Collectives: []string{"allreduce"}, InNetwork: true}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.resolve()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("resolve: %v", err)
				}
				return
			}
			if !errors.Is(err, core.ErrBadSpec) {
				t.Fatalf("want ErrBadSpec, got %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// transferDAGSize counts exactly the transfers the NPU-level simulator
// builds.
func TestTransferDAGSizeMatchesBuilder(t *testing.T) {
	for _, topo := range []string{"RI(4)_FC(3)_SW(2)", "SW(8)", "RI(2)_RI(2)_RI(2)_RI(2)", "FC(5)_RI(3)"} {
		net := topology.MustParse(topo)
		for _, op := range []collective.Op{collective.ReduceScatter, collective.AllGather, collective.AllReduce, collective.AllToAll} {
			for _, chunks := range []int{1, 3} {
				trs, err := sim.BuildCollectiveTransfers(net, op, 1e6, collective.FullMapping(net), chunks)
				if err != nil {
					t.Fatal(err)
				}
				if got := transferDAGSize(net, op, chunks); got != float64(len(trs)) {
					t.Errorf("%s %v chunks=%d: transferDAGSize %v, builder %d", topo, op, chunks, got, len(trs))
				}
			}
		}
	}
}

func TestComputeNilSpecIsDefaultMatrix(t *testing.T) {
	e := newEngine(t)
	rep, err := Compute(context.Background(), e, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := len(DefaultTopologies()) * (2*len(DefaultCollectives()) + len(DefaultWorkloads())*len(DefaultLoops()))
	if len(rep.Scenarios) != want {
		t.Fatalf("nil spec enumerated %d scenarios, want %d", len(rep.Scenarios), want)
	}
}

func TestComputeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compute(ctx, newEngine(t), &Spec{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestCollectiveCaseAgainstDirectCalls pins the shared helper to the
// underlying packages so the two CLI binaries and the matrix cannot
// drift from first-principles calls.
func TestCollectiveCaseAgainstDirectCalls(t *testing.T) {
	net := topology.MustParse("RI(4)_RI(4)")
	bw := topology.BWConfig{100, 50}
	cc := CollectiveCase{Net: net, Op: collective.AllReduce, Bytes: 5e8, BW: bw, Chunks: 8}
	if got, want := cc.Analytical(), collective.Time(collective.AllReduce, 5e8, collective.FullMapping(net), bw); got != want {
		t.Fatalf("Analytical %v != collective.Time %v", got, want)
	}
	busy := cc.AnalyticalDimBusy()
	traffic := collective.Traffic(collective.AllReduce, 5e8, cc.Mapping(), net.NumDims())
	for d := range busy {
		if want := traffic[d] / (bw[d] * 1e9); math.Abs(busy[d]-want) > 1e-18 {
			t.Fatalf("dim %d busy %v != %v", d, busy[d], want)
		}
	}
	pr, err := cc.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	nr, err := cc.NPULevel(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	th, err := cc.Themis()
	if err != nil {
		t.Fatal(err)
	}
	ana := cc.Analytical()
	for name, makespan := range map[string]float64{"pipeline": pr.Makespan, "npu-level": nr.Makespan, "themis": th.Makespan} {
		if makespan < ana-1e-12 {
			t.Errorf("%s makespan %v beats the analytical bound %v", name, makespan, ana)
		}
	}
}

// TestPipelineNeverBeatsBoundRandomized is a property check feeding the
// matrix's core invariant with randomized shapes: for any mapping, chunk
// count, payload, and bandwidths, the simulated makespan ≥ the analytical
// bottleneck bound and busy times match the closed form.
func TestPipelineNeverBeatsBoundRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := []collective.Op{collective.ReduceScatter, collective.AllGather, collective.AllReduce, collective.AllToAll}
	for i := 0; i < 60; i++ {
		ndims := 1 + rng.Intn(3)
		shape := make([]string, ndims)
		kinds := []string{"RI", "FC", "SW"}
		for d := range shape {
			shape[d] = kinds[rng.Intn(len(kinds))] + "(" + string(rune('2'+rng.Intn(3))) + ")"
		}
		net := topology.MustParse(strings.Join(shape, "_"))
		bw := make(topology.BWConfig, ndims)
		for d := range bw {
			bw[d] = 1 + 400*rng.Float64()
		}
		cc := CollectiveCase{
			Net:    net,
			Op:     ops[rng.Intn(len(ops))],
			Bytes:  1e6 * (1 + rng.Float64()*1e3),
			BW:     bw,
			Chunks: 1 + rng.Intn(32),
		}
		pr, err := cc.Pipeline()
		if err != nil {
			t.Fatalf("case %d (%s %v): %v", i, net.Name(), cc.Op, err)
		}
		if ana := cc.Analytical(); pr.Makespan < ana-1e-12 {
			t.Fatalf("case %d (%s %v, %d chunks): makespan %v < bound %v",
				i, net.Name(), cc.Op, cc.Chunks, pr.Makespan, ana)
		}
		for d, want := range cc.AnalyticalDimBusy() {
			if got := pr.DimBusy[d]; math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("case %d dim %d busy %v != analytical %v", i, d, got, want)
			}
		}
	}
}

// TestMeasure pins the divergence metric itself.
func TestMeasure(t *testing.T) {
	o, err := measure(2, 2.2, []float64{1, 0}, []float64{1.05, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(o.RelErr-0.1) > 1e-12 {
		t.Fatalf("rel err %v, want 0.1", o.RelErr)
	}
	// dim 0: 5% off; dim 1: idle analytically, measured against dim 0's
	// scale → 10%.
	if math.Abs(o.DimBusyRelE-0.1) > 1e-12 {
		t.Fatalf("dim busy rel err %v, want 0.1", o.DimBusyRelE)
	}
	if _, err := measure(0, 1, nil, nil); err == nil {
		t.Fatal("zero analytical time must be rejected")
	}
	if _, err := measure(1, math.Inf(1), nil, nil); err == nil {
		t.Fatal("infinite simulated time must be rejected")
	}
}
