package timemodel

import (
	"fmt"

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
// per-dimension traffic) resolved once. Time and Iteration fold the same
// compiled terms with the same operations in the same order, so
// Time(bw) equals Iteration(bw).Total bit for bit. A Plan is immutable
// and safe for concurrent use; later mutations of the workload are not
// seen.
type Plan struct {
	net    *topology.Network
	loop   Loop
	layers []layerPlan
}

// layerPlan is one compiled layer: its copy count, its three compute
// times, and its collectives per stage.
type layerPlan struct {
	n                       float64
	fwdComp, tpComp, dpComp float64
	fwd, tp, dp             []commPlan
}

// commPlan holds one collective's nonzero per-dimension traffic terms,
// innermost dimension first.
type commPlan []trafficTerm

type trafficTerm struct {
	dim   int
	bytes float64
}

// Compile validates w, maps its strategy onto the network under the
// estimator's policy, and compiles its time plan. Beyond the Plan itself,
// the plan takes three allocations whatever the workload's size: every
// traffic term shares one array, every stage's collectives are windows of
// one commPlan array, and the layers fill one more.
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
	terms := make([]trafficTerm, 0, ncomm*ndims)
	comms := make([]commPlan, 0, ncomm)
	// Per-collective traffic scratch; LIBRA fabrics have ≤ 8 dimensions,
	// so the backing array normally lives on this frame.
	var tarr [8]float64
	tbuf := tarr[:]
	if ndims > len(tarr) {
		tbuf = make([]float64, ndims)
	}
	stage := func(cs []workload.Comm) []commPlan {
		first := len(comms)
		for _, c := range cs {
			mapping := maps.ForScope(c.Scope)
			var tr []float64
			if e.InNetwork != nil {
				tr = collective.InNetworkTrafficInto(tbuf, c.Op, c.Bytes, mapping, ndims, e.InNetwork)
			} else {
				tr = collective.TrafficInto(tbuf, c.Op, c.Bytes, mapping, ndims)
			}
			from := len(terms)
			for d, v := range tr {
				if v != 0 {
					terms = append(terms, trafficTerm{dim: d, bytes: v})
				}
			}
			// A collective with no traffic adds +0 to its stage sum; it
			// is dropped rather than priced.
			if len(terms) > from {
				comms = append(comms, terms[from:len(terms):len(terms)])
			}
		}
		return comms[first:len(comms):len(comms)]
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
	return pl, nil
}

// Time prices one iteration under bw — the objective handed to the
// optimizer. It never fails (an invalid bandwidth vector prices at 1e308)
// and allocates nothing for a valid one.
//
//libra:hotpath
func (pl *Plan) Time(bw topology.BWConfig) float64 {
	if err := bw.Validate(pl.net); err != nil {
		return inf
	}
	total := 0.0
	for i := range pl.layers {
		l := &pl.layers[i]
		fwdComm := stageComm(l.fwd, bw)
		tpComm := stageComm(l.tp, bw)
		dpComm := stageComm(l.dp, bw)
		total += l.n * pl.loop.LayerTime(l.fwdComp, fwdComm, l.tpComp, tpComm, l.dpComp, dpComm)
	}
	return total
}

// stageComm sums the completion times of one stage's collectives, each
// the slowest dimension's traffic over its bandwidth.
//
//libra:hotpath
func stageComm(cs []commPlan, bw topology.BWConfig) float64 {
	t := 0.0
	for _, c := range cs {
		worst := 0.0
		for _, term := range c {
			if x := term.bytes / (bw[term.dim] * 1e9); x > worst {
				worst = x
			}
		}
		t += worst
	}
	return t
}

// Iteration prices one iteration under bw with the full breakdown: the
// total Time returns, plus per-dimension busy time and the collective
// window. Communication is identical across a layer's copies, so each
// layer is priced once and its busy-time and window increments scaled by
// the copy count.
func (pl *Plan) Iteration(bw topology.BWConfig) (Breakdown, error) {
	if err := bw.Validate(pl.net); err != nil {
		return Breakdown{}, err
	}
	b := Breakdown{DimBusy: make([]float64, len(bw))}
	var parr [8]float64
	pre := parr[:]
	if len(bw) > len(parr) {
		pre = make([]float64, len(bw))
	}
	for i := range pl.layers {
		l := &pl.layers[i]
		copy(pre, b.DimBusy)
		preColl := b.CollectiveTime
		fwdComm := b.addStage(l.fwd, bw)
		tpComm := b.addStage(l.tp, bw)
		dpComm := b.addStage(l.dp, bw)
		for d := range b.DimBusy {
			b.DimBusy[d] = pre[d] + l.n*(b.DimBusy[d]-pre[d])
		}
		b.CollectiveTime = preColl + l.n*(b.CollectiveTime-preColl)
		b.Total += l.n * pl.loop.LayerTime(l.fwdComp, fwdComm, l.tpComp, tpComm, l.dpComp, dpComm)
	}
	return b, nil
}

// addStage is stageComm that also accumulates each collective's
// per-dimension busy time and completion time into b.
func (b *Breakdown) addStage(cs []commPlan, bw topology.BWConfig) float64 {
	t := 0.0
	for _, c := range cs {
		worst := 0.0
		for _, term := range c {
			x := term.bytes / (bw[term.dim] * 1e9)
			b.DimBusy[term.dim] += x
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
