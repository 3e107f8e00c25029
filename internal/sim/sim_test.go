package sim

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"libra/internal/collective"
	"libra/internal/compute"
	"libra/internal/timemodel"
	"libra/internal/topology"
	"libra/internal/workload"
)

func approx(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func mapping2D(n1, n2 int) collective.Mapping {
	return collective.Mapping{Phases: []collective.Phase{{Dim: 0, Group: n1}, {Dim: 1, Group: n2}}}
}

// A single chunk serializes the 2N stages: the makespan must equal the sum
// of stage times.
func TestPipelineSingleChunkSerializes(t *testing.T) {
	m := 1e9
	mp := mapping2D(4, 2)
	bw := topology.BWConfig{50, 50}
	events := 0
	r, err := Trace(collective.AllReduce, m, mp, bw, 1, func(StageEvent) { events++ })
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, s := range collective.Stages(collective.AllReduce, mp) {
		want += collective.StageTraffic(collective.AllReduce, m, mp, s) / (bw[s.Dim] * 1e9)
	}
	if !approx(r.Makespan, want, 1e-9) {
		t.Errorf("1-chunk makespan = %v, want serialized %v", r.Makespan, want)
	}
	if events != 4 {
		t.Errorf("trace events = %d, want 4 stages", events)
	}
}

// With many chunks, pipelining hides non-bottleneck stages: the makespan
// converges to the analytical bottleneck bound from above.
func TestPipelineConvergesToAnalyticalBound(t *testing.T) {
	m := 1e9
	mp := mapping2D(8, 4)
	bw := topology.BWConfig{100, 20}
	bound := collective.Time(collective.AllReduce, m, mp, bw)
	prev := math.Inf(1)
	for _, chunks := range []int{1, 4, 16, 64, 256} {
		r, err := SimulateCollective(collective.AllReduce, m, mp, bw, chunks)
		if err != nil {
			t.Fatal(err)
		}
		if r.Makespan < bound-1e-12 {
			t.Errorf("chunks=%d makespan %v beats the analytical bound %v", chunks, r.Makespan, bound)
		}
		if r.Makespan > prev*(1+1e-9) {
			t.Errorf("chunks=%d makespan %v worse than fewer chunks %v", chunks, r.Makespan, prev)
		}
		prev = r.Makespan
	}
	r, err := SimulateCollective(collective.AllReduce, m, mp, bw, 256)
	if err != nil {
		t.Fatal(err)
	}
	if (r.Makespan-bound)/bound > 0.05 {
		t.Errorf("256-chunk makespan %v not within 5%% of bound %v", r.Makespan, bound)
	}
}

// Fig. 9(a): an underprovisioned Dim 1 is busy ~always while other dims
// idle; Fig. 9(c): traffic-proportional BW keeps all dims near-fully busy.
func TestPipelineFig9UtilizationShapes(t *testing.T) {
	m := 1e9
	mp := collective.Mapping{Phases: []collective.Phase{{Dim: 0, Group: 4}, {Dim: 1, Group: 4}, {Dim: 2, Group: 4}}}
	tr := collective.Traffic(collective.AllReduce, m, mp, 3)

	// Underprovision dim 1 (give it far less than its traffic share).
	starved := topology.BWConfig{10, 100, 100}
	r, err := SimulateCollective(collective.AllReduce, m, mp, starved, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.DimUtilization(0) < 0.9 {
		t.Errorf("starved dim1 utilization = %v, want ≈ 1 (bottleneck)", r.DimUtilization(0))
	}
	if r.DimUtilization(1) > 0.5 || r.DimUtilization(2) > 0.5 {
		t.Errorf("non-bottleneck dims should idle: %v %v", r.DimUtilization(1), r.DimUtilization(2))
	}

	// Balanced: BW proportional to traffic.
	balanced := topology.BWConfig{tr[0] / 1e9, tr[1] / 1e9, tr[2] / 1e9}
	rb, err := SimulateCollective(collective.AllReduce, m, mp, balanced, 64)
	if err != nil {
		t.Fatal(err)
	}
	if rb.AvgUtilization() < 0.85 {
		t.Errorf("balanced utilization = %v, want near 1 (modulo fill/drain bubbles)", rb.AvgUtilization())
	}
	if !(rb.AvgUtilization() > r.AvgUtilization()) {
		t.Errorf("balanced %v should beat starved %v", rb.AvgUtilization(), r.AvgUtilization())
	}
}

func TestPipelineTimelineOrdering(t *testing.T) {
	var timeline []StageEvent
	_, err := Trace(collective.AllReduce, 1e8, mapping2D(4, 2), topology.BWConfig{10, 10}, 4,
		func(ev StageEvent) { timeline = append(timeline, ev) })
	if err != nil {
		t.Fatal(err)
	}
	// 4 chunks × 4 stages.
	if len(timeline) != 16 {
		t.Fatalf("timeline = %d events", len(timeline))
	}
	// Events arrive in start order (up to the dispatcher's 1e-18 s tie
	// slack); per chunk, stages must be sequential; per dim, no overlap.
	chunkEnd := map[int]float64{}
	dimEnd := map[int]float64{}
	for i, ev := range timeline {
		if i > 0 && ev.Start < timeline[i-1].Start-1e-18 {
			t.Errorf("event %d starts at %v, before event %d at %v", i, ev.Start, i-1, timeline[i-1].Start)
		}
		if ev.Start < chunkEnd[ev.Chunk]-1e-12 {
			t.Errorf("chunk %d stage starts at %v before its previous stage ended %v", ev.Chunk, ev.Start, chunkEnd[ev.Chunk])
		}
		if ev.Start < dimEnd[ev.Dim]-1e-12 {
			t.Errorf("dim %d overlapping events", ev.Dim)
		}
		chunkEnd[ev.Chunk] = ev.End
		dimEnd[ev.Dim] = ev.End
	}
}

// Pricing records no per-stage events: SimulateCollective allocates the
// same at every chunk count.
func TestPricingAllocsFlatInChunks(t *testing.T) {
	mp := collective.Mapping{Phases: []collective.Phase{{Dim: 0, Group: 4}, {Dim: 1, Group: 8}, {Dim: 2, Group: 2}}}
	bw := topology.BWConfig{100, 40, 25}
	allocs := func(chunks int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := SimulateCollective(collective.AllReduce, 1e9, mp, bw, chunks); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(4)
	for _, chunks := range []int{64, 256} {
		if got := allocs(chunks); got != base {
			t.Errorf("%d chunks: %v allocs per call, %v at 4 chunks", chunks, got, base)
		}
	}
}

func TestPipelineZeroAndErrors(t *testing.T) {
	mp := mapping2D(4, 2)
	bw := topology.BWConfig{10, 10}
	if _, err := SimulateCollective(collective.AllReduce, 1e6, mp, bw, 0); err == nil {
		t.Error("0 chunks should error")
	}
	r, err := SimulateCollective(collective.AllReduce, 0, mp, bw, 4)
	if err != nil || r.Makespan != 0 {
		t.Errorf("zero-byte collective: %v, %v", r, err)
	}
	bad := collective.Mapping{Phases: []collective.Phase{{Dim: 5, Group: 2}}}
	if _, err := SimulateCollective(collective.AllReduce, 1e6, bad, bw, 4); err == nil {
		t.Error("bad mapping should error")
	}
}

// NPU-level simulation must agree with the analytical stage model on every
// unit topology kind.
func TestNPULevelMatchesAnalyticPerKind(t *testing.T) {
	cases := []string{"RI(4)", "FC(4)", "SW(4)", "RI(8)", "FC(5)", "SW(3)"}
	for _, shape := range cases {
		net := topology.MustParse(shape)
		m := 64e6
		mp := collective.FullMapping(net)
		bw := topology.BWConfig{40}
		for _, op := range []collective.Op{collective.ReduceScatter, collective.AllGather, collective.AllReduce, collective.AllToAll} {
			want := collective.Time(op, m, mp, bw)
			r, err := SimulateCollectiveNPULevel(context.Background(), net, op, m, mp, bw, 1)
			if err != nil {
				t.Fatalf("%s %v: %v", shape, op, err)
			}
			if !approx(r.Makespan, want, 1e-6) {
				t.Errorf("%s %v: NPU-level %v, analytic %v", shape, op, r.Makespan, want)
			}
		}
	}
}

// Multi-dimensional NPU-level All-Reduce with one chunk equals the summed
// serialized stage times (all NPUs symmetric).
func TestNPULevelMultiDimMatchesSerializedStages(t *testing.T) {
	net := topology.MustParse("RI(4)_SW(2)")
	m := 16e6
	mp := collective.FullMapping(net)
	bw := topology.BWConfig{10, 5}
	want := 0.0
	for _, s := range collective.Stages(collective.AllReduce, mp) {
		want += collective.StageTraffic(collective.AllReduce, m, mp, s) / (bw[s.Dim] * 1e9)
	}
	r, err := SimulateCollectiveNPULevel(context.Background(), net, collective.AllReduce, m, mp, bw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r.Makespan, want, 1e-6) {
		t.Errorf("NPU-level %v, want %v", r.Makespan, want)
	}
}

// The symmetric pipeline backend is an idealized lower bound on the
// NPU-level backend: exact for one chunk, and within a bounded
// fill/drain + round-interleaving bubble margin for chunked runs.
func TestPipelineBoundsNPULevelChunked(t *testing.T) {
	net := topology.MustParse("RI(4)_FC(3)_SW(2)")
	m := 24e6
	mp := collective.FullMapping(net)
	bw := topology.BWConfig{30, 10, 5}
	for _, chunks := range []int{1, 2, 4} {
		pl, err := SimulateCollective(collective.AllReduce, m, mp, bw, chunks)
		if err != nil {
			t.Fatal(err)
		}
		np, err := SimulateCollectiveNPULevel(context.Background(), net, collective.AllReduce, m, mp, bw, chunks)
		if err != nil {
			t.Fatal(err)
		}
		if np.Makespan < pl.Makespan*(1-1e-9) {
			t.Errorf("chunks=%d NPU-level %v beats the pipeline bound %v", chunks, np.Makespan, pl.Makespan)
		}
		if np.Makespan > pl.Makespan*1.35 {
			t.Errorf("chunks=%d NPU-level %v too far above pipeline %v", chunks, np.Makespan, pl.Makespan)
		}
		if chunks == 1 && !approx(pl.Makespan, np.Makespan, 1e-6) {
			t.Errorf("1-chunk backends must agree exactly: %v vs %v", pl.Makespan, np.Makespan)
		}
	}
}

func TestRunTransfersValidation(t *testing.T) {
	net := topology.MustParse("RI(4)")
	bw := topology.BWConfig{10}
	bad := []Transfer{{Src: 0, Dst: 9, Dim: 0, Bytes: 1}}
	if _, err := RunTransfers(context.Background(), net, bw, bad); err == nil {
		t.Error("out-of-range dst should error")
	}
	cyc := []Transfer{
		{Src: 0, Dst: 1, Dim: 0, Bytes: 1, Deps: []int{1}},
		{Src: 1, Dst: 2, Dim: 0, Bytes: 1, Deps: []int{0}},
	}
	if _, err := RunTransfers(context.Background(), net, bw, cyc); err == nil {
		t.Error("dependency cycle should error")
	}
}

func TestRunTransfersSerializesPorts(t *testing.T) {
	net := topology.MustParse("FC(3)")
	bw := topology.BWConfig{10}
	// Two transfers out of NPU 0 share its TX port: total 2·(1e9/1e10) s.
	trs := []Transfer{
		{Src: 0, Dst: 1, Dim: 0, Bytes: 1e9},
		{Src: 0, Dst: 2, Dim: 0, Bytes: 1e9},
	}
	r, err := RunTransfers(context.Background(), net, bw, trs)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r.Makespan, 0.2, 1e-9) {
		t.Errorf("makespan = %v, want 0.2 (serialized TX)", r.Makespan)
	}
	// Transfers into different dsts from different srcs run in parallel.
	par := []Transfer{
		{Src: 0, Dst: 1, Dim: 0, Bytes: 1e9},
		{Src: 2, Dst: 0, Dim: 0, Bytes: 1e9},
	}
	r, err = RunTransfers(context.Background(), net, bw, par)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r.Makespan, 0.1, 1e-9) {
		t.Errorf("parallel makespan = %v, want 0.1", r.Makespan)
	}
}

func TestSimulateIterationTracksAnalyticalModel(t *testing.T) {
	net := topology.ThreeD1K() // keep it light: 1,024 NPUs symbolic only
	w, err := workload.MSFT1T(1024)
	if err != nil {
		t.Fatal(err)
	}
	bw := topology.EqualBW(300, 3)
	cfg := TrainingConfig{Net: net, Compute: compute.A100(), Loop: timemodel.NoOverlap, Chunks: 64}
	simRes, err := SimulateIteration(cfg, w, bw)
	if err != nil {
		t.Fatal(err)
	}
	est := &timemodel.Estimator{Net: net, Compute: compute.A100(), Loop: timemodel.NoOverlap}
	ana, err := est.Iteration(w, bw)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Total < ana.Total*(1-1e-9) {
		t.Errorf("simulated %v beats analytical bound %v", simRes.Total, ana.Total)
	}
	if (simRes.Total-ana.Total)/ana.Total > 0.10 {
		t.Errorf("simulated %v more than 10%% above analytical %v (64-chunk pipelining should be tight)", simRes.Total, ana.Total)
	}
	if simRes.Utilization <= 0 || simRes.Utilization > 1 {
		t.Errorf("utilization = %v", simRes.Utilization)
	}
}

func TestSimulateIterationOverlapBeatsNoOverlap(t *testing.T) {
	net := topology.ThreeD1K()
	w, err := workload.MSFT1T(1024)
	if err != nil {
		t.Fatal(err)
	}
	bw := topology.EqualBW(300, 3)
	no, err := SimulateIteration(TrainingConfig{Net: net, Compute: compute.A100(), Loop: timemodel.NoOverlap, Chunks: 16}, w, bw)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := SimulateIteration(TrainingConfig{Net: net, Compute: compute.A100(), Loop: timemodel.TPDPOverlap, Chunks: 16}, w, bw)
	if err != nil {
		t.Fatal(err)
	}
	if !(ov.Total <= no.Total) {
		t.Errorf("overlap %v should not exceed no-overlap %v", ov.Total, no.Total)
	}
}

func TestSimulateIterationDefaultsAndErrors(t *testing.T) {
	net := topology.ThreeD1K()
	w, err := workload.MSFT1T(1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateIteration(TrainingConfig{Net: net, Compute: compute.A100(), Chunks: -1}, w, topology.EqualBW(300, 3)); err == nil {
		t.Error("negative chunks should error")
	}
	if _, err := SimulateIteration(TrainingConfig{Net: net, Compute: compute.A100()}, w, topology.BWConfig{1}); err == nil {
		t.Error("bad bw should error")
	}
}

// Property: pipeline makespan is monotone non-increasing in any dim's BW.
func TestQuickPipelineMonotoneInBW(t *testing.T) {
	mp := mapping2D(4, 4)
	f := func(a, b uint8, which bool) bool {
		bw := topology.BWConfig{float64(a%100) + 1, float64(b%100) + 1}
		up := bw.Clone()
		if which {
			up[0] *= 2
		} else {
			up[1] *= 2
		}
		r1, err1 := SimulateCollective(collective.AllReduce, 1e8, mp, bw, 8)
		r2, err2 := SimulateCollective(collective.AllReduce, 1e8, mp, up, 8)
		if err1 != nil || err2 != nil {
			return false
		}
		return r2.Makespan <= r1.Makespan*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: NPU-level and analytic agree on random ring sizes.
func TestQuickNPULevelRingMatchesAnalytic(t *testing.T) {
	f := func(a uint8) bool {
		g := int(a%6) + 2
		net := topology.MustNew(topology.Dim{Kind: topology.Ring, Size: g})
		mp := collective.FullMapping(net)
		bw := topology.BWConfig{25}
		want := collective.Time(collective.AllReduce, 8e6, mp, bw)
		r, err := SimulateCollectiveNPULevel(context.Background(), net, collective.AllReduce, 8e6, mp, bw, 1)
		if err != nil {
			return false
		}
		return approx(r.Makespan, want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// A done context stops the transfer-DAG dispatch loop: FC(128) at 2
// chunks is 65,024 transfers, seconds of dispatch uncancelled (3 s on a
// 2-vCPU Xeon), and a cancel mid-dispatch ends the run with
// context.Canceled within one scan of the ready set.
func TestRunTransfersHonorsCancellation(t *testing.T) {
	net := topology.MustParse("FC(128)")
	trs, err := BuildCollectiveTransfers(net, collective.AllReduce, 1e8, collective.FullMapping(net), 2)
	if err != nil {
		t.Fatal(err)
	}
	bw := topology.BWConfig{100}
	// A context done before the run times the setup ahead of the loop.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := RunTransfers(ctx, net, bw, trs); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: err = %v, want context.Canceled", err)
	}
	delay := time.Since(start) + 50*time.Millisecond

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(delay, cancel)
	start = time.Now()
	if _, err := RunTransfers(ctx, net, bw, trs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if late := time.Since(start) - delay; late > 500*time.Millisecond {
		t.Errorf("run ended %v after its cancel", late)
	}
}
