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

// Breakdown reports the six Fig. 5 stage totals plus derived quantities,
// all in seconds (traffic in bytes).
type Breakdown struct {
	FwdComp, FwdComm float64
	TPComp, TPComm   float64
	DPComp, DPComm   float64
	// Total is the end-to-end iteration time under the estimator's loop.
	Total float64
	// ComputeOnly is the iteration time with all communication free — the
	// "pure compute" floor of Fig. 10.
	ComputeOnly float64
	// ExposedComm = Total − ComputeOnly.
	ExposedComm float64
	// DimTraffic is the per-dimension bytes each NPU moves per iteration.
	DimTraffic []float64
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

// Iteration estimates one training iteration of w under bandwidth bw.
func (e *Estimator) Iteration(w *workload.Workload, bw topology.BWConfig) (Breakdown, error) {
	f, err := e.Prepare(w)
	if err != nil {
		return Breakdown{}, err
	}
	return f(bw)
}

// Prepare validates w and resolves its parallelization mapping once,
// returning a closure that prices design points with only per-point
// bandwidth validation left on the hot path. Sweeps that evaluate one
// workload across many bandwidth vectors should prepare once and call the
// closure per point.
func (e *Estimator) Prepare(w *workload.Workload) (func(bw topology.BWConfig) (Breakdown, error), error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	maps, err := MapStrategy(e.Net, w.Strategy, e.Policy)
	if err != nil {
		return nil, err
	}
	return func(bw topology.BWConfig) (Breakdown, error) {
		if err := bw.Validate(e.Net); err != nil {
			return Breakdown{}, err
		}
		return e.iterate(w, bw, maps), nil
	}, nil
}

// commCost prices one collective call, accumulating per-dim traffic and
// busy time into b. tbuf is per-call traffic scratch.
func (e *Estimator) commCost(c workload.Comm, maps Mappings, bw topology.BWConfig, b *Breakdown, tbuf []float64) float64 {
	worst := 0.0
	for d, v := range e.traffic(c, maps, tbuf) {
		if v == 0 {
			continue
		}
		t := v / (bw[d] * 1e9)
		b.DimTraffic[d] += v
		b.DimBusy[d] += t
		if t > worst {
			worst = t
		}
	}
	b.CollectiveTime += worst
	return worst
}

// traffic returns one collective's per-dimension bytes, with in-network
// offload applied, written into tbuf.
func (e *Estimator) traffic(c workload.Comm, maps Mappings, tbuf []float64) []float64 {
	mapping := maps.ForScope(c.Scope)
	ndims := e.Net.NumDims()
	if e.InNetwork != nil {
		return collective.InNetworkTrafficInto(tbuf, c.Op, c.Bytes, mapping, ndims, e.InNetwork)
	}
	return collective.TrafficInto(tbuf, c.Op, c.Bytes, mapping, ndims)
}

// iterate prices one iteration with the full breakdown: stage totals plus
// per-dimension traffic and busy time.
func (e *Estimator) iterate(w *workload.Workload, bw topology.BWConfig, maps Mappings) Breakdown {
	ndims := e.Net.NumDims()
	b := Breakdown{DimTraffic: make([]float64, ndims), DimBusy: make([]float64, ndims)}
	preTraffic := make([]float64, ndims)
	preBusy := make([]float64, ndims)
	// Per-collective traffic scratch; LIBRA fabrics have ≤ 8 dimensions,
	// so the backing array normally lives on this frame.
	var tarr [8]float64
	tbuf := tarr[:]
	if ndims > len(tarr) {
		tbuf = make([]float64, ndims)
	}
	sumComm := func(cs []workload.Comm) float64 {
		t := 0.0
		for _, c := range cs {
			t += e.commCost(c, maps, bw, &b, tbuf)
		}
		return t
	}
	for _, l := range w.Layers {
		n := float64(l.Count)
		fwdComp := e.Compute.Time(l.FwdFLOPs, l.FwdBytes)
		tpComp := e.Compute.Time(l.TPFLOPs, l.TPBytes)
		dpComp := e.Compute.Time(l.DPFLOPs, l.DPBytes)
		// Communication is identical across the Count copies; price one
		// layer and scale. Scale the shared accumulators afterwards.
		copy(preTraffic, b.DimTraffic)
		copy(preBusy, b.DimBusy)
		preColl := b.CollectiveTime
		fwdComm := sumComm(l.FwdComm)
		tpComm := sumComm(l.TPComm)
		dpComm := sumComm(l.DPComm)
		for d := range b.DimTraffic {
			b.DimTraffic[d] = preTraffic[d] + n*(b.DimTraffic[d]-preTraffic[d])
			b.DimBusy[d] = preBusy[d] + n*(b.DimBusy[d]-preBusy[d])
		}
		b.CollectiveTime = preColl + n*(b.CollectiveTime-preColl)

		b.FwdComp += n * fwdComp
		b.FwdComm += n * fwdComm
		b.TPComp += n * tpComp
		b.TPComm += n * tpComm
		b.DPComp += n * dpComp
		b.DPComm += n * dpComm

		b.ComputeOnly += n * (fwdComp + tpComp + dpComp)
		b.Total += n * e.Loop.LayerTime(fwdComp, fwdComm, tpComp, tpComm, dpComp, dpComm)
	}
	b.ExposedComm = b.Total - b.ComputeOnly
	return b
}

// LayerTime folds one layer's six stage times under the loop (Fig. 5).
func (l Loop) LayerTime(fwdComp, fwdComm, tpComp, tpComm, dpComp, dpComm float64) float64 {
	if l == TPDPOverlap {
		bwd := tpComp + maxf(tpComm, dpComp+dpComm)
		return fwdComp + fwdComm + bwd
	}
	return fwdComp + fwdComm + tpComp + tpComm + dpComp + dpComm
}

// timePlan is a workload compiled for repeated pricing: everything in an
// iteration estimate that does not depend on bandwidth, resolved once.
// Evaluating it performs exactly the floating-point operations, in the
// same order, that iterate performs for Breakdown.Total, so the two agree
// bit for bit.
type timePlan struct {
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

// compile builds w's bandwidth-independent time plan under maps.
func (e *Estimator) compile(w *workload.Workload, maps Mappings) *timePlan {
	tbuf := make([]float64, e.Net.NumDims())
	comms := func(cs []workload.Comm) []commPlan {
		out := make([]commPlan, 0, len(cs))
		for _, c := range cs {
			tr := e.traffic(c, maps, tbuf)
			nz := 0
			for _, v := range tr {
				if v != 0 {
					nz++
				}
			}
			// A collective with no traffic adds +0 to its stage sum; it
			// is dropped rather than priced.
			if nz == 0 {
				continue
			}
			cp := make(commPlan, 0, nz)
			for d, v := range tr {
				if v != 0 {
					cp = append(cp, trafficTerm{dim: d, bytes: v})
				}
			}
			out = append(out, cp)
		}
		return out
	}
	pl := &timePlan{loop: e.Loop, layers: make([]layerPlan, len(w.Layers))}
	for i := range w.Layers {
		l := &w.Layers[i]
		pl.layers[i] = layerPlan{
			n:       float64(l.Count),
			fwdComp: e.Compute.Time(l.FwdFLOPs, l.FwdBytes),
			tpComp:  e.Compute.Time(l.TPFLOPs, l.TPBytes),
			dpComp:  e.Compute.Time(l.DPFLOPs, l.DPBytes),
			fwd:     comms(l.FwdComm),
			tp:      comms(l.TPComm),
			dp:      comms(l.DPComm),
		}
	}
	return pl
}

// total prices one iteration under bw (already validated).
//
//libra:hotpath
func (pl *timePlan) total(bw topology.BWConfig) float64 {
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

// TimeFunc returns a closure evaluating iteration time as a pure function
// of the bandwidth vector — the objective handed to the optimizer. The
// workload is compiled once into a bandwidth-independent plan (mapping,
// compute times, per-collective traffic), so a call only divides, takes
// maxima and sums; the result equals Iteration(w, bw).Total bit for bit.
// The closure never fails (invalid bandwidths yield +Inf) and allocates
// nothing. Later mutations of w are not seen.
func (e *Estimator) TimeFunc(w *workload.Workload) (func(bw topology.BWConfig) float64, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	maps, err := MapStrategy(e.Net, w.Strategy, e.Policy)
	if err != nil {
		return nil, err
	}
	pl := e.compile(w, maps)
	net := e.Net
	return func(bw topology.BWConfig) float64 {
		if err := bw.Validate(net); err != nil {
			return inf
		}
		return pl.total(bw)
	}, nil
}

const inf = 1e308

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
