package timemodel

import (
	"fmt"
	"math"
	"slices"

	"libra/internal/collective"
	"libra/internal/compute"
	"libra/internal/topology"
	"libra/internal/workload"
)

// Loop selects the training loop (paper Fig. 5).
type Loop int

const (
	// NoOverlap runs every compute and communication stage exclusively
	// (Fig. 5b).
	NoOverlap Loop = iota
	// TPDPOverlap exposes TP compute but overlaps TP communication with
	// DP compute and DP communication (Fig. 5c): per-layer backward time
	// is TPComp + max(TPComm, DPComp + DPComm).
	TPDPOverlap
)

// Key returns the canonical spec/CLI spelling of the loop ("no-overlap",
// "tp-dp-overlap") — the strings core.ParseLoop accepts.
func (l Loop) Key() string {
	if l == TPDPOverlap {
		return "tp-dp-overlap"
	}
	return "no-overlap"
}

// String names the loop.
func (l Loop) String() string {
	switch l {
	case NoOverlap:
		return "No Overlap"
	case TPDPOverlap:
		return "TP-DP Overlap"
	default:
		return fmt.Sprintf("Loop(%d)", int(l))
	}
}

// Estimator evaluates iteration time for one network + bandwidth
// configuration. The zero value is unusable; fill every field (InNetwork
// may be nil for no switch offload).
type Estimator struct {
	Net     *topology.Network
	Compute compute.Model
	Loop    Loop
	Policy  MappingPolicy
	// InNetwork marks dimensions whose switches offload All-Reduce
	// reductions (in-network collectives, §IV-C). nil disables offload.
	InNetwork []bool
}

// Breakdown reports one estimated training iteration, in seconds.
type Breakdown struct {
	// Total is the end-to-end iteration time under the estimator's loop.
	Total float64
	// DimBusy is the per-dimension seconds each NPU's port transfers.
	DimBusy []float64
	// CollectiveTime is the summed completion time of every collective
	// (the serialized communication window used for utilization).
	CollectiveTime float64
}

// AvgUtilization returns the average network bandwidth utilization during
// communication: the mean over dimensions of (busy time / communication
// window), the quantity Fig. 10's x-axis reports.
func (b Breakdown) AvgUtilization() float64 {
	if b.CollectiveTime <= 0 || len(b.DimBusy) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range b.DimBusy {
		sum += v
	}
	return sum / (float64(len(b.DimBusy)) * b.CollectiveTime)
}

// Iteration estimates one training iteration of w under bandwidth bw: a
// one-shot Compile plus Plan.Iteration.
func (e *Estimator) Iteration(w *workload.Workload, bw topology.BWConfig) (Breakdown, error) {
	pl, err := e.Compile(w)
	if err != nil {
		return Breakdown{}, err
	}
	return pl.Iteration(bw)
}

// LayerTime folds one layer's six stage times under the loop (Fig. 5).
func (l Loop) LayerTime(fwdComp, fwdComm, tpComp, tpComm, dpComp, dpComm float64) float64 {
	if l == TPDPOverlap {
		bwd := tpComp + maxf(tpComm, dpComp+dpComm)
		return fwdComp + fwdComm + bwd
	}
	return fwdComp + fwdComm + tpComp + tpComm + dpComp + dpComm
}

// Plan is a workload compiled for repeated pricing on one estimator:
// everything in an iteration estimate that does not depend on bandwidth
// (the parallelization mapping, the compute times, every collective's
// per-dimension traffic) resolved once. Collectives with identical
// traffic terms are interned into one distinct list, and each stage is a
// window of distinct indices in its original collective order. Time and
// Iteration price each collective with the same operations and fold the
// windows in the same order, so Time(bw) equals Iteration(bw).Total bit
// for bit. A Plan is immutable and safe for concurrent use; later
// mutations of the workload are not seen.
type Plan struct {
	net  *topology.Network
	loop Loop
	// traffic holds each of the distinct collectives' bytes per
	// dimension, innermost first and zero where it sends nothing:
	// collective j is traffic[j*ndims:(j+1)*ndims].
	traffic  []float64
	distinct int
	layers   []layerPlan
}

// layerPlan is one compiled layer: its copy count, its three compute
// times, and its fwd, tp and dp windows of distinct indices. Every
// window of a plan is a slice of one shared index array.
type layerPlan struct {
	n                       float64
	fwdComp, tpComp, dpComp float64
	fwd, tp, dp             []int32
}

// Pricing scratch sizes: the scaled bandwidth vector and the distinct
// collectives' times live on the pricing call's frame up to these sizes
// (LIBRA fabrics have ≤ 8 dimensions; a Table II workload compiles to ≤ 6
// distinct collectives on any preset fabric). A wider network or a
// larger plan takes a heap scratch for that call, not another path.
const (
	stackDims     = 8
	stackDistinct = 16
)

// Compile validates w, maps its strategy onto the network under the
// estimator's policy, and compiles its time plan. Beyond the Plan itself,
// the plan takes three allocations whatever the workload's size: the
// distinct collectives' traffic fills one array, every stage window
// shares one index array, and the layers fill one more. A collective
// whose traffic equals an earlier one's is not stored again.
func (e *Estimator) Compile(w *workload.Workload) (*Plan, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	maps, err := MapStrategy(e.Net, w.Strategy, e.Policy)
	if err != nil {
		return nil, err
	}
	ndims := e.Net.NumDims()
	ncomm := 0
	for i := range w.Layers {
		l := &w.Layers[i]
		ncomm += len(l.FwdComm) + len(l.TPComm) + len(l.DPComm)
	}
	traffic := make([]float64, 0, ncomm*ndims)
	win := make([]int32, 0, ncomm) // never outgrown, so windows share it
	// Per-collective traffic scratch; LIBRA fabrics have ≤ 8 dimensions,
	// so the backing array normally lives on this frame.
	var tarr [stackDims]float64
	tbuf := tarr[:]
	if ndims > len(tarr) {
		tbuf = make([]float64, ndims)
	}
	// intern returns the distinct index of a collective's traffic,
	// appending it only if no distinct collective has the same
	// (dimension, bytes) terms, or -1 for a collective with no traffic.
	// Equal vectors (±0 compare equal) price to equal bits.
	intern := func(tr []float64) int32 {
		if !slices.ContainsFunc(tr, nonzero) {
			return -1
		}
		for j := 0; j < len(traffic); j += ndims {
			if slices.Equal(traffic[j:j+ndims], tr) {
				return int32(j / ndims)
			}
		}
		traffic = append(traffic, tr...)
		return int32(len(traffic)/ndims - 1)
	}
	stage := func(cs []workload.Comm) []int32 {
		first := len(win)
		for _, c := range cs {
			mapping := maps.ForScope(c.Scope)
			var tr []float64
			if e.InNetwork != nil {
				tr = collective.InNetworkTrafficInto(tbuf, c.Op, c.Bytes, mapping, ndims, e.InNetwork)
			} else {
				tr = collective.TrafficInto(tbuf, c.Op, c.Bytes, mapping, ndims)
			}
			// A collective with no traffic adds +0 to its stage sum; it
			// is dropped rather than priced.
			if j := intern(tr); j >= 0 {
				win = append(win, j)
			}
		}
		return win[first:len(win):len(win)]
	}
	pl := &Plan{net: e.Net, loop: e.Loop, layers: make([]layerPlan, len(w.Layers))}
	for i := range w.Layers {
		l := &w.Layers[i]
		pl.layers[i] = layerPlan{
			n:       float64(l.Count),
			fwdComp: e.Compute.Time(l.FwdFLOPs, l.FwdBytes),
			tpComp:  e.Compute.Time(l.TPFLOPs, l.TPBytes),
			dpComp:  e.Compute.Time(l.DPFLOPs, l.DPBytes),
			fwd:     stage(l.FwdComm),
			tp:      stage(l.TPComm),
			dp:      stage(l.DPComm),
		}
	}
	pl.traffic, pl.distinct = traffic, len(traffic)/ndims
	return pl, nil
}

func nonzero(v float64) bool { return v != 0 }

// Time prices one iteration under bw — the objective handed to the
// optimizer for a single workload. It never fails (an invalid bandwidth
// vector prices at 1e308) and allocates nothing for a valid one within
// the pricing scratch.
//
//libra:hotpath
func (pl *Plan) Time(bw topology.BWConfig) float64 {
	if !bw.Valid(pl.net.NumDims()) {
		return inf
	}
	var sarr [stackDims]float64
	var warr [stackDistinct]float64
	return pl.price(scale(sarr[:], bw), scratch(warr[:], pl.distinct))
}

// Weighted prices the weighted mean iteration time of several plans
// compiled on one network — the optimizer's objective over a problem's
// targets. A Weighted is immutable and safe for concurrent use.
type Weighted struct {
	plans   []*Plan
	weights []float64
	wsum    float64
	ndims   int
	// distinct is the most distinct collectives of any plan: the
	// scratch one call prices every plan into.
	distinct int
}

// NewWeighted builds the objective Σ weights[i]·plans[i].Time / wsum.
// Every plan must be compiled on a network of the first plan's
// dimensionality, and there must be one weight per plan.
func NewWeighted(plans []*Plan, weights []float64, wsum float64) Weighted {
	if len(plans) == 0 || len(weights) != len(plans) {
		panic(fmt.Sprintf("timemodel: NewWeighted with %d plans and %d weights", len(plans), len(weights)))
	}
	o := Weighted{plans: plans, weights: weights, wsum: wsum, ndims: plans[0].net.NumDims()}
	for _, pl := range plans {
		if n := pl.net.NumDims(); n != o.ndims {
			panic(fmt.Sprintf("timemodel: NewWeighted mixes %dD and %dD plans", o.ndims, n))
		}
		o.distinct = max(o.distinct, pl.distinct)
	}
	return o
}

// Time returns the weighted mean iteration time under bw: it checks and
// scales bw once, accumulates weights[i]·T_i in plan order and divides by
// wsum. It returns +Inf for an invalid vector or when any T_i reaches
// 1e300, and allocates nothing within the pricing scratch.
//
//libra:hotpath
func (o *Weighted) Time(bw []float64) float64 {
	if !topology.BWConfig(bw).Valid(o.ndims) {
		return math.Inf(1)
	}
	var sarr [stackDims]float64
	var warr [stackDistinct]float64
	scaled, worst := scale(sarr[:], bw), scratch(warr[:], o.distinct)
	total := 0.0
	for i, pl := range o.plans {
		t := pl.price(scaled, worst)
		if t >= 1e300 {
			return math.Inf(1)
		}
		total += o.weights[i] * t
	}
	return total / o.wsum
}

// scale returns bw in bytes per second, in buf when it fits.
func scale(buf, bw []float64) []float64 {
	if len(bw) > len(buf) {
		buf = make([]float64, len(bw))
	}
	buf = buf[:len(bw)]
	for d, v := range bw {
		buf[d] = v * 1e9
	}
	return buf
}

// scratch returns n float64s of buf, or a heap slice when buf is short.
func scratch(buf []float64, n int) []float64 {
	if n > len(buf) {
		return make([]float64, n)
	}
	return buf[:n]
}

// price is the one pricing kernel. It prices each distinct collective
// once into worst (the slowest dimension's traffic over its scaled
// bandwidth), sums each stage's window in its original order, and folds
// the layers under the loop. scaled holds bw·1e9; worst has room for
// every distinct collective.
//
//libra:hotpath
func (pl *Plan) price(scaled, worst []float64) float64 {
	pl.priceDistinct(scaled, worst)
	total := 0.0
	for i := range pl.layers {
		l := &pl.layers[i]
		fwdComm := stageSum(l.fwd, worst)
		tpComm := stageSum(l.tp, worst)
		dpComm := stageSum(l.dp, worst)
		total += l.n * pl.loop.LayerTime(l.fwdComp, fwdComm, l.tpComp, tpComm, l.dpComp, dpComm)
	}
	return total
}

// priceDistinct sets worst[j] to distinct collective j's completion time.
//
//libra:hotpath
func (pl *Plan) priceDistinct(scaled, worst []float64) {
	n := len(scaled)
	worst = worst[:pl.distinct]
	for j := range worst {
		a := pl.traffic[j*n:][:n]
		w := 0.0
		for d, s := range scaled {
			// A zero term prices at +0 and never wins.
			if x := a[d] / s; x > w {
				w = x
			}
		}
		worst[j] = w
	}
}

// stageSum sums the completion times of one stage window's collectives.
//
//libra:hotpath
func stageSum(win []int32, worst []float64) float64 {
	t := 0.0
	for _, j := range win {
		t += worst[j]
	}
	return t
}

// Iteration prices one iteration under bw with the full breakdown: the
// total Time returns, plus per-dimension busy time and the collective
// window. It walks the same stage windows as Time, collective by
// collective, with the same operations. Communication is identical across a layer's copies, so
// each layer is priced once and its busy-time and window increments
// scaled by the copy count.
func (pl *Plan) Iteration(bw topology.BWConfig) (Breakdown, error) {
	if err := bw.Validate(pl.net); err != nil {
		return Breakdown{}, err
	}
	b := Breakdown{DimBusy: make([]float64, len(bw))}
	var sarr, parr [stackDims]float64
	scaled, pre := scale(sarr[:], bw), scratch(parr[:], len(bw))
	for i := range pl.layers {
		l := &pl.layers[i]
		copy(pre, b.DimBusy)
		preColl := b.CollectiveTime
		fwdComm := b.addStage(pl, l.fwd, scaled)
		tpComm := b.addStage(pl, l.tp, scaled)
		dpComm := b.addStage(pl, l.dp, scaled)
		for d := range b.DimBusy {
			b.DimBusy[d] = pre[d] + l.n*(b.DimBusy[d]-pre[d])
		}
		b.CollectiveTime = preColl + l.n*(b.CollectiveTime-preColl)
		b.Total += l.n * pl.loop.LayerTime(l.fwdComp, fwdComm, l.tpComp, tpComm, l.dpComp, dpComm)
	}
	return b, nil
}

// addStage sums one stage window's collective completion times as
// stageSum does, pricing each collective's nonzero terms itself so that
// it can accumulate their per-dimension busy time, and the completion
// times, into b.
func (b *Breakdown) addStage(pl *Plan, win []int32, scaled []float64) float64 {
	n := len(scaled)
	t := 0.0
	for _, j := range win {
		worst := 0.0
		for d, v := range pl.traffic[int(j)*n:][:n] {
			if v == 0 {
				continue
			}
			x := v / scaled[d]
			b.DimBusy[d] += x
			if x > worst {
				worst = x
			}
		}
		b.CollectiveTime += worst
		t += worst
	}
	return t
}

const inf = 1e308

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
