package timemodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"libra/internal/collective"
	"libra/internal/compute"
	"libra/internal/topology"
	"libra/internal/workload"
)

func approx(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestMapStrategyExactDims(t *testing.T) {
	net := topology.FourD4K() // RI(4)_FC(8)_RI(4)_SW(32)
	m, err := MapStrategy(net, workload.Strategy{TP: 128, DP: 32}, Actual)
	if err != nil {
		t.Fatal(err)
	}
	wantTP := []collective.Phase{{Dim: 0, Group: 4}, {Dim: 1, Group: 8}, {Dim: 2, Group: 4}}
	if len(m.TP.Phases) != 3 {
		t.Fatalf("TP phases = %+v", m.TP.Phases)
	}
	for i, p := range m.TP.Phases {
		if p != wantTP[i] {
			t.Errorf("TP phase %d = %+v, want %+v", i, p, wantTP[i])
		}
	}
	if len(m.DP.Phases) != 1 || m.DP.Phases[0] != (collective.Phase{Dim: 3, Group: 32}) {
		t.Errorf("DP phases = %+v", m.DP.Phases)
	}
	if m.All.Size() != 4096 {
		t.Errorf("All size = %d", m.All.Size())
	}
}

// GPT-3's TP=16 ends inside FC(8): TP takes (4, 4), DP takes (2, 4, 32).
func TestMapStrategySplitDim(t *testing.T) {
	net := topology.FourD4K()
	m, err := MapStrategy(net, workload.Strategy{TP: 16, DP: 256}, Actual)
	if err != nil {
		t.Fatal(err)
	}
	wantTP := []collective.Phase{{Dim: 0, Group: 4}, {Dim: 1, Group: 4}}
	wantDP := []collective.Phase{{Dim: 1, Group: 2}, {Dim: 2, Group: 4}, {Dim: 3, Group: 32}}
	if len(m.TP.Phases) != len(wantTP) {
		t.Fatalf("TP phases = %+v", m.TP.Phases)
	}
	for i := range wantTP {
		if m.TP.Phases[i] != wantTP[i] {
			t.Errorf("TP phase %d = %+v, want %+v", i, m.TP.Phases[i], wantTP[i])
		}
	}
	if len(m.DP.Phases) != len(wantDP) {
		t.Fatalf("DP phases = %+v", m.DP.Phases)
	}
	for i := range wantDP {
		if m.DP.Phases[i] != wantDP[i] {
			t.Errorf("DP phase %d = %+v, want %+v", i, m.DP.Phases[i], wantDP[i])
		}
	}
	if m.TP.Size()*m.DP.Size() != 4096 {
		t.Errorf("TP×DP = %d", m.TP.Size()*m.DP.Size())
	}
}

func TestMapStrategyIdealFullDims(t *testing.T) {
	net := topology.FourD4K()
	m, err := MapStrategy(net, workload.Strategy{TP: 16, DP: 256}, IdealFullDims)
	if err != nil {
		t.Fatal(err)
	}
	// Ideal policy rounds TP=16 up to RI(4)×FC(8) = 32.
	if len(m.TP.Phases) != 2 || m.TP.Phases[1].Group != 8 {
		t.Errorf("ideal TP phases = %+v", m.TP.Phases)
	}
	if len(m.DP.Phases) != 2 || m.DP.Phases[0].Dim != 2 {
		t.Errorf("ideal DP phases = %+v", m.DP.Phases)
	}
}

func TestMapStrategyPureDP(t *testing.T) {
	net := topology.ThreeD4K()
	m, err := MapStrategy(net, workload.Strategy{TP: 1, DP: 4096}, Actual)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.TP.Phases) != 0 {
		t.Errorf("TP phases = %+v, want empty", m.TP.Phases)
	}
	if m.DP.Size() != 4096 {
		t.Errorf("DP size = %d", m.DP.Size())
	}
}

func TestMapStrategyErrors(t *testing.T) {
	net := topology.FourD4K()
	cases := []workload.Strategy{
		{TP: 24, DP: 4096 / 24}, // wrong NPU count (not integral anyway)
		{TP: 3, DP: 1365},       // 3 does not divide 4
		{TP: 4096 * 2, DP: 1},   // exceeds network
		{TP: 12, DP: 4096 / 12}, // wrong NPU total
	}
	for _, s := range cases {
		if _, err := MapStrategy(net, s, Actual); err == nil {
			t.Errorf("strategy %v unexpectedly mapped", s)
		}
	}
	// TP=24 with the right total still fails divisibility mid-dim.
	net2 := topology.MustParse("RI(4)_FC(8)_SW(3)")
	if _, err := MapStrategy(net2, workload.Strategy{TP: 24, DP: 4}, Actual); err == nil {
		t.Error("TP=24 on RI(4)_FC(8) should fail (6 does not divide 8)")
	}
}

func newEstimator(net *topology.Network, loop Loop) *Estimator {
	return &Estimator{Net: net, Compute: compute.A100(), Loop: loop, Policy: Actual}
}

func synthetic(tp, dp int) *workload.Workload {
	return &workload.Workload{
		Name:      "synthetic",
		Params:    1e9,
		Strategy:  workload.Strategy{TP: tp, DP: dp},
		Minibatch: 1,
		Layers: []workload.Layer{{
			Name:     "l",
			Count:    2,
			FwdFLOPs: 234e12 * 0.010, // 10 ms at A100 rate
			TPFLOPs:  234e12 * 0.020,
			DPFLOPs:  0,
			FwdComm:  []workload.Comm{{Op: collective.AllReduce, Bytes: 1e9, Scope: workload.TPScope}},
			TPComm:   []workload.Comm{{Op: collective.AllReduce, Bytes: 1e9, Scope: workload.TPScope}},
			DPComm:   []workload.Comm{{Op: collective.AllReduce, Bytes: 2e9, Scope: workload.DPScope}},
		}},
	}
}

// layerStages holds one layer's copy count and six Fig. 5 stage times.
type layerStages struct {
	n                                                float64
	fwdComp, fwdComm, tpComp, tpComm, dpComp, dpComm float64
}

// handStages prices w's stages layer by layer straight from the mapping,
// the collective model and the compute model — an independent reference
// for the compiled plan.
func handStages(t *testing.T, e *Estimator, w *workload.Workload, bw topology.BWConfig) []layerStages {
	t.Helper()
	maps, err := MapStrategy(e.Net, w.Strategy, e.Policy)
	if err != nil {
		t.Fatal(err)
	}
	comm := func(cs []workload.Comm) float64 {
		s := 0.0
		for _, c := range cs {
			if e.InNetwork != nil {
				s += collective.TimeInNetwork(c.Op, c.Bytes, maps.ForScope(c.Scope), bw, e.InNetwork)
			} else {
				s += collective.Time(c.Op, c.Bytes, maps.ForScope(c.Scope), bw)
			}
		}
		return s
	}
	out := make([]layerStages, len(w.Layers))
	for i, l := range w.Layers {
		out[i] = layerStages{
			n:       float64(l.Count),
			fwdComp: e.Compute.Time(l.FwdFLOPs, l.FwdBytes), fwdComm: comm(l.FwdComm),
			tpComp: e.Compute.Time(l.TPFLOPs, l.TPBytes), tpComm: comm(l.TPComm),
			dpComp: e.Compute.Time(l.DPFLOPs, l.DPBytes), dpComm: comm(l.DPComm),
		}
	}
	return out
}

// handTotal folds hand-priced stages under loop.
func handTotal(st []layerStages, loop Loop) float64 {
	total := 0.0
	for _, s := range st {
		total += s.n * loop.LayerTime(s.fwdComp, s.fwdComm, s.tpComp, s.tpComm, s.dpComp, s.dpComm)
	}
	return total
}

// handComputeOnly is the iteration time with all communication free —
// the "pure compute" floor of Fig. 10.
func handComputeOnly(st []layerStages) float64 {
	total := 0.0
	for _, s := range st {
		total += s.n * (s.fwdComp + s.tpComp + s.dpComp)
	}
	return total
}

func TestIterationNoOverlapAddsEverything(t *testing.T) {
	net := topology.MustParse("RI(4)_SW(8)")
	e := newEstimator(net, NoOverlap)
	w := synthetic(4, 8)
	bw := topology.BWConfig{100, 100}
	b, err := e.Iteration(w, bw)
	if err != nil {
		t.Fatal(err)
	}
	st := handStages(t, e, w, bw)
	want := 0.0
	for _, s := range st {
		want += s.n * (s.fwdComp + s.fwdComm + s.tpComp + s.tpComm + s.dpComp + s.dpComm)
	}
	if !approx(b.Total, want, 1e-12) {
		t.Errorf("NoOverlap total = %v, want sum of stages %v", b.Total, want)
	}
	// Two layers at 10+20 ms compute each.
	if computeOnly := handComputeOnly(st); !approx(computeOnly, 0.060, 1e-9) {
		t.Errorf("compute-only time = %v, want 60 ms", computeOnly)
	}
	// Every collective is exposed: TP All-Reduces of 1e9 B over RI(4)
	// (2·m·3/4 at 100 GB/s, twice per layer) and the DP All-Reduce of 2e9 B
	// over SW(8) (2·m·7/8 at 100 GB/s).
	wantComm := 2 * (2*(2*1e9*3/4)/100e9 + 2*2e9*7/8/100e9)
	if !approx(b.Total-handComputeOnly(st), wantComm, 1e-9) {
		t.Errorf("exposed communication = %v, want %v", b.Total-handComputeOnly(st), wantComm)
	}
}

func TestIterationTPDPOverlap(t *testing.T) {
	net := topology.MustParse("RI(4)_SW(8)")
	w := synthetic(4, 8)
	bw := topology.BWConfig{100, 100}
	no, err := newEstimator(net, NoOverlap).Iteration(w, bw)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := newEstimator(net, TPDPOverlap).Iteration(w, bw)
	if err != nil {
		t.Fatal(err)
	}
	if !(ov.Total < no.Total) {
		t.Errorf("overlap %v should beat no-overlap %v", ov.Total, no.Total)
	}
	// Per layer: fwd (comp+comm) + TPComp + max(TPComm, DPComp+DPComm).
	s := handStages(t, newEstimator(net, TPDPOverlap), w, bw)[0]
	perLayerFwd := s.fwdComp + s.fwdComm
	bwd := s.tpComp + math.Max(s.tpComm, s.dpComp+s.dpComm)
	if !approx(ov.Total, 2*(perLayerFwd+bwd), 1e-9) {
		t.Errorf("overlap total = %v, want %v", ov.Total, 2*(perLayerFwd+bwd))
	}
}

func TestIterationTimeDecreasesWithBW(t *testing.T) {
	net := topology.MustParse("RI(4)_SW(8)")
	e := newEstimator(net, NoOverlap)
	w := synthetic(4, 8)
	t1, err := e.Iteration(w, topology.BWConfig{50, 50})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.Iteration(w, topology.BWConfig{500, 500})
	if err != nil {
		t.Fatal(err)
	}
	if !(t2.Total < t1.Total) {
		t.Errorf("10× BW should reduce time: %v vs %v", t2.Total, t1.Total)
	}
	if floor := handComputeOnly(handStages(t, e, w, topology.BWConfig{50, 50})); !(t2.Total >= floor) {
		t.Errorf("time %v cannot beat the compute floor %v", t2.Total, floor)
	}
}

func TestDimTrafficAndBusyConsistent(t *testing.T) {
	net := topology.MustParse("RI(4)_SW(8)")
	e := newEstimator(net, NoOverlap)
	w := synthetic(4, 8)
	bw := topology.BWConfig{100, 25}
	b, err := e.Iteration(w, bw)
	if err != nil {
		t.Fatal(err)
	}
	// Busy time is each dimension's traffic over its bandwidth: TP AR
	// (1e9 ×2 calls ×2 layers) on dim 0 at 2·m·3/4 each, DP AR (2e9 ×2
	// layers) on dim 1 at 2·m·7/8.
	wantTraffic := []float64{2.0 * 2 * (2 * 1e9 * 3 / 4), 2.0 * (2 * 2e9 * 7 / 8)}
	for d, want := range wantTraffic {
		if got := b.DimBusy[d] * bw[d] * 1e9; !approx(got, want, 1e-9) {
			t.Errorf("dim %d traffic (busy·bw) = %v, want %v", d, got, want)
		}
	}
	// The window is the summed per-collective completion times: each
	// collective here uses one dimension.
	wantColl := 2 * (2*(2*1e9*3/4)/(bw[0]*1e9) + 2*2e9*7/8/(bw[1]*1e9))
	if !approx(b.CollectiveTime, wantColl, 1e-9) {
		t.Errorf("collective window = %v, want %v", b.CollectiveTime, wantColl)
	}
	if b.AvgUtilization() <= 0 || b.AvgUtilization() > 1 {
		t.Errorf("utilization = %v out of (0,1]", b.AvgUtilization())
	}
}

func TestUtilizationIsPerfectWhenBalanced(t *testing.T) {
	// One collective over both dims with BW proportional to traffic: every
	// dim is busy the whole window → utilization 1.
	net := topology.MustParse("RI(4)_SW(8)")
	w := &workload.Workload{
		Name: "ar-only", Strategy: workload.Strategy{TP: 32, DP: 1}, Minibatch: 1,
		Layers: []workload.Layer{{
			Name: "l", Count: 1,
			FwdComm: []workload.Comm{{Op: collective.AllReduce, Bytes: 1e9, Scope: workload.TPScope}},
		}},
	}
	e := newEstimator(net, NoOverlap)
	tr := collective.Traffic(collective.AllReduce, 1e9, collective.Mapping{
		Phases: []collective.Phase{{Dim: 0, Group: 4}, {Dim: 1, Group: 8}}}, 2)
	bw := topology.BWConfig{tr[0] / 1e9, tr[1] / 1e9}
	b, err := e.Iteration(w, bw)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(b.AvgUtilization(), 1.0, 1e-9) {
		t.Errorf("balanced utilization = %v, want 1", b.AvgUtilization())
	}
}

func TestTimeFuncMatchesIteration(t *testing.T) {
	net := topology.FourD4K()
	e := newEstimator(net, NoOverlap)
	w, err := workload.MSFT1T(4096)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := e.Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	bw := topology.BWConfig{100, 80, 60, 60}
	b, err := e.Iteration(w, bw)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pl.Time(bw), b.Total, 1e-12) {
		t.Errorf("Plan.Time = %v, Iteration = %v", pl.Time(bw), b.Total)
	}
	if want := handTotal(handStages(t, e, w, bw), e.Loop); !approx(b.Total, want, 1e-12) {
		t.Errorf("Iteration = %v, stage-by-stage total = %v", b.Total, want)
	}
	if got := pl.Time(topology.BWConfig{1}); !math.IsInf(got, 1) && got < 1e300 {
		t.Errorf("invalid bw should price to +inf-ish, got %v", got)
	}
}

func TestInNetworkOffloadSpeedsUpAllReduce(t *testing.T) {
	net := topology.MustParse("RI(4)_SW(8)")
	w := synthetic(4, 8)
	bw := topology.BWConfig{100, 100}
	plain := newEstimator(net, NoOverlap)
	off := newEstimator(net, NoOverlap)
	off.InNetwork = []bool{false, true}
	bp, err := plain.Iteration(w, bw)
	if err != nil {
		t.Fatal(err)
	}
	bo, err := off.Iteration(w, bw)
	if err != nil {
		t.Fatal(err)
	}
	// The DP All-Reduce lives on the offloaded SW(8): its busy time
	// drops from 2·m·7/8 to m bytes over the bandwidth, while the TP
	// dimension is untouched.
	if !(bo.DimBusy[1] < bp.DimBusy[1]) {
		t.Errorf("offloaded dim busy %v should beat %v", bo.DimBusy[1], bp.DimBusy[1])
	}
	if want := 2 * 2e9 / (bw[1] * 1e9); !approx(bo.DimBusy[1], want, 1e-12) {
		t.Errorf("offloaded dim busy = %v, want %v", bo.DimBusy[1], want)
	}
	if bo.DimBusy[0] != bp.DimBusy[0] {
		t.Errorf("offload moved the TP dim's busy time: %v vs %v", bo.DimBusy[0], bp.DimBusy[0])
	}
	if !(bo.Total < bp.Total) {
		t.Errorf("offloaded iteration %v should beat %v", bo.Total, bp.Total)
	}
}

// The GPT-3 anomaly (§VI-A): an Ideal-policy model prices TP over the full
// FC(8) while the Actual traffic only uses groups of 4 — the two must
// disagree on 4D-4K to reproduce the paper's observation.
func TestIdealVsActualDivergeForGPT3(t *testing.T) {
	net := topology.FourD4K()
	w, err := workload.GPT3(4096)
	if err != nil {
		t.Fatal(err)
	}
	bw := topology.EqualBW(400, 4)
	actual := newEstimator(net, NoOverlap)
	ideal := newEstimator(net, NoOverlap)
	ideal.Policy = IdealFullDims
	ba, err := actual.Iteration(w, bw)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := ideal.Iteration(w, bw)
	if err != nil {
		t.Fatal(err)
	}
	if approx(ba.Total, bi.Total, 1e-9) {
		t.Errorf("ideal and actual policies agree (%v); expected divergence for TP=16 on 4D-4K", ba.Total)
	}
}

// Property: iteration time is monotone non-increasing in every dimension's
// bandwidth.
func TestQuickMonotoneInBW(t *testing.T) {
	net := topology.MustParse("RI(4)_SW(8)")
	e := newEstimator(net, NoOverlap)
	w := synthetic(4, 8)
	pl, err := e.Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	f := pl.Time
	prop := func(a, b uint8, dim bool) bool {
		b1 := topology.BWConfig{float64(a%200) + 1, float64(b%200) + 1}
		b2 := b1.Clone()
		if dim {
			b2[0] *= 2
		} else {
			b2[1] *= 2
		}
		return f(b2) <= f(b1)+1e-15
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the analytical objective is convex along random line segments
// in BW space (PerfOpt's convexity, which the optimizer relies on).
func TestQuickConvexAlongSegments(t *testing.T) {
	net := topology.MustParse("RI(4)_SW(8)")
	e := newEstimator(net, NoOverlap)
	w := synthetic(4, 8)
	pl, err := e.Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	f := pl.Time
	prop := func(a1, a2, b1, b2 uint8) bool {
		x := topology.BWConfig{float64(a1) + 1, float64(a2) + 1}
		y := topology.BWConfig{float64(b1) + 1, float64(b2) + 1}
		mid := topology.BWConfig{(x[0] + y[0]) / 2, (x[1] + y[1]) / 2}
		return f(mid) <= (f(x)+f(y))/2+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Pipeline parallelism maps between TP (innermost) and DP (outermost).
func TestMapStrategyWithPP(t *testing.T) {
	net := topology.FourD4K() // RI(4)_FC(8)_RI(4)_SW(32)
	m, err := MapStrategy(net, workload.Strategy{TP: 32, PP: 4, DP: 32}, Actual)
	if err != nil {
		t.Fatal(err)
	}
	// TP = 4×8, PP = RI(4), DP = SW(32).
	if m.TP.Size() != 32 || m.PP.Size() != 4 || m.DP.Size() != 32 {
		t.Errorf("sizes TP=%d PP=%d DP=%d", m.TP.Size(), m.PP.Size(), m.DP.Size())
	}
	if len(m.PP.Phases) != 1 || m.PP.Phases[0].Dim != 2 {
		t.Errorf("PP phases = %+v, want dim 3", m.PP.Phases)
	}
}

// PP splitting a dimension: TP=8 on RI(4)_FC(8): TP takes (4,2); PP=2
// takes the next factor of FC(8); DP gets the rest.
func TestMapStrategyPPSplitsDim(t *testing.T) {
	net := topology.MustParse("RI(4)_FC(8)_SW(4)")
	m, err := MapStrategy(net, workload.Strategy{TP: 8, PP: 2, DP: 8}, Actual)
	if err != nil {
		t.Fatal(err)
	}
	if m.TP.Size() != 8 || m.PP.Size() != 2 || m.DP.Size() != 8 {
		t.Fatalf("sizes TP=%d PP=%d DP=%d", m.TP.Size(), m.PP.Size(), m.DP.Size())
	}
	if len(m.PP.Phases) != 1 || m.PP.Phases[0].Dim != 1 || m.PP.Phases[0].Group != 2 {
		t.Errorf("PP phases = %+v", m.PP.Phases)
	}
	wantDP := []collective.Phase{{Dim: 1, Group: 2}, {Dim: 2, Group: 4}}
	if len(m.DP.Phases) != 2 || m.DP.Phases[0] != wantDP[0] || m.DP.Phases[1] != wantDP[1] {
		t.Errorf("DP phases = %+v, want %+v", m.DP.Phases, wantDP)
	}
}

// A pipelined iteration prices the stage-boundary point-to-point traffic
// on the dimension where PP lives.
func TestIterationWithPipelineParallelism(t *testing.T) {
	net := topology.MustParse("RI(4)_FC(4)_SW(8)")
	cfg := workload.TransformerConfig{Name: "pp", NumLayers: 16, Hidden: 2048, SeqLen: 512}
	w, err := workload.TransformerPP(cfg, workload.Strategy{TP: 4, PP: 4, DP: 8}, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	e := newEstimator(net, NoOverlap)
	bw := topology.BWConfig{100, 100, 100}
	b, err := e.Iteration(w, bw)
	if err != nil {
		t.Fatal(err)
	}
	if b.DimBusy[1] == 0 {
		t.Error("PP dim carries no traffic")
	}
	// Point-to-point volume per stage: fwd + bwd boundary messages.
	wantP2P := 2 * 16.0 * 512 * 2048 * 2 / 4
	gotP2P := b.DimBusy[1] * bw[1] * 1e9
	if gotP2P < wantP2P*(1-1e-9) {
		t.Errorf("PP dim traffic %v, want ≥ %v", gotP2P, wantP2P)
	}
	// Starving the PP dimension must slow the iteration.
	slow, err := e.Iteration(w, topology.BWConfig{100, 0.5, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !(slow.Total > b.Total) {
		t.Errorf("starved PP dim should hurt: %v vs %v", slow.Total, b.Total)
	}
}

// LIBRA optimization works end-to-end on a pipelined workload: the PP
// point-to-point traffic is tiny next to TP collectives, so PerfOpt
// still wins by rebalancing toward the TP dims.
func TestPointToPointCollectiveModel(t *testing.T) {
	mp := collective.Mapping{Phases: []collective.Phase{{Dim: 1, Group: 4}}}
	tr := collective.Traffic(collective.PointToPoint, 1e6, mp, 3)
	if tr[0] != 0 || tr[1] != 1e6 || tr[2] != 0 {
		t.Errorf("P2P traffic = %v, want 1e6 on dim 2 only", tr)
	}
	bw := topology.BWConfig{10, 10, 10}
	if got := collective.Time(collective.PointToPoint, 1e6, mp, bw); !approx(got, 1e-4, 1e-12) {
		t.Errorf("P2P time = %v, want 1e-4", got)
	}
	ss := collective.Stages(collective.PointToPoint, mp)
	if len(ss) != 1 || ss[0].Op != collective.PointToPoint {
		t.Errorf("P2P stages = %+v", ss)
	}
}

// TestTimeFuncMatchesIterationBits checks that the plan's two folds — Time,
// the optimizer's objective, and Iteration, the full breakdown — agree bit
// for bit on the total, across
// every Table II workload × every preset topology × both loops × both
// mapping policies × no offload or last-dimension offload, at seeded
// random bandwidth vectors spanning four decades.
func TestTimeFuncMatchesIterationBits(t *testing.T) {
	topos := append(topology.PresetNames(), topology.Name2D4K)
	rng := rand.New(rand.NewSource(13))
	cases, combos := 0, 0
	for _, tn := range topos {
		net, err := topology.Preset(tn)
		if err != nil {
			t.Fatal(err)
		}
		ndims := net.NumDims()
		lastDim := make([]bool, ndims)
		lastDim[ndims-1] = true
		for _, wn := range workload.PresetNames() {
			w, err := workload.Preset(wn, net.NPUs())
			if err != nil {
				continue // the preset does not fit this NPU count
			}
			for _, loop := range []Loop{NoOverlap, TPDPOverlap} {
				for _, policy := range []MappingPolicy{Actual, IdealFullDims} {
					for _, offload := range [][]bool{nil, lastDim} {
						e := &Estimator{Net: net, Compute: compute.A100(), Loop: loop, Policy: policy, InNetwork: offload}
						pl, err := e.Compile(w)
						if err != nil {
							continue // the strategy does not map onto this network
						}
						combos++
						bw := make(topology.BWConfig, ndims)
						for k := 0; k < 200; k++ {
							for d := range bw {
								bw[d] = math.Pow(10, -1+4*rng.Float64())
							}
							b, err := pl.Iteration(bw)
							if err != nil {
								t.Fatal(err)
							}
							got := pl.Time(bw)
							if math.Float64bits(got) != math.Float64bits(b.Total) {
								t.Fatalf("%s on %s (%v, policy %d, offload %v) at %v: Time = %v, Iteration.Total = %v",
									wn, tn, loop, policy, offload, bw, got, b.Total)
							}
							cases++
						}
						bw[0] = 0
						if got := pl.Time(bw); got != inf {
							t.Fatalf("%s on %s: Time at invalid %v = %v, want %v", wn, tn, bw, got, inf)
						}
						if _, err := pl.Iteration(bw); err == nil {
							t.Fatalf("%s on %s: Iteration at invalid %v succeeded", wn, tn, bw)
						}
					}
				}
			}
		}
	}
	if combos < 100 {
		t.Fatalf("only %d workload × topology × loop × policy × offload combinations priced", combos)
	}
	t.Logf("%d combinations, %d bandwidth vectors", combos, cases)
}

// Compile allocates a fixed number of times whatever the workload's layer
// and collective counts: the traffic terms, the collective windows and
// the layers each fill one array.
func TestCompileAllocsFlatInLayers(t *testing.T) {
	net := topology.MustParse("RI(4)_SW(8)")
	e := newEstimator(net, NoOverlap)
	deep := func(layers int) *workload.Workload {
		w := synthetic(4, 8)
		l := w.Layers[0]
		l.FwdComm = append(l.FwdComm, workload.Comm{Op: collective.AllGather, Bytes: 1e8, Scope: workload.AllScope})
		w.Layers = make([]workload.Layer, layers)
		for i := range w.Layers {
			w.Layers[i] = l
		}
		return w
	}
	allocs := func(w *workload.Workload) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := e.Compile(w); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(deep(1)), allocs(deep(200))
	if one != many {
		t.Errorf("Compile allocs: %v for 1 layer, %v for 200 layers; want equal", one, many)
	}
	pl, err := e.Compile(deep(200))
	if err != nil {
		t.Fatal(err)
	}
	bw := topology.BWConfig{100, 50}
	if n := testing.AllocsPerRun(20, func() { pl.Time(bw) }); n != 0 {
		t.Errorf("Plan.Time allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { pl.Iteration(bw) }); n != 1 {
		t.Errorf("Plan.Iteration allocates %v times per call, want 1 (DimBusy)", n)
	}
}
