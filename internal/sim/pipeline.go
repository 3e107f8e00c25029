// Package sim is the discrete-event simulation substrate standing in for
// ASTRA-sim in the paper's methodology (§V-A). It provides two backends:
//
//   - A chunk-pipeline simulator that models each network dimension as a
//     serial per-NPU port and executes chunked multi-rail collectives
//     through their 2N-stage schedules. Collectives in LIBRA's topologies
//     are NPU-symmetric, so one NPU's timeline is the collective's
//     timeline; this backend scales to thousands of NPUs and reproduces
//     the Fig. 9 pipeline diagrams and bandwidth-utilization numbers.
//     Pricing records no timeline: stage events go only to a Trace visitor.
//
//   - An NPU-level transfer-graph simulator (netsim.go) that schedules
//     every individual message over per-NPU TX/RX ports, used to validate
//     the symmetric backend and to execute synthesized (TACOS) schedules.
//
// Iterate is the one simulated training iteration: it takes the
// collective pricer as an argument and folds each layer with
// timemodel.Loop.LayerTime. SimulateIteration prices with the chunk
// pipeline; themis.SimulateIteration plugs in the Themis scheduler.
package sim

import (
	"fmt"
	"math"

	"libra/internal/collective"
	"libra/internal/topology"
)

// StageEvent is one executed chunk-stage, as Trace visits it.
type StageEvent struct {
	Chunk int
	Dim   int
	Op    collective.Op
	Start float64
	End   float64
}

// PipelineResult is the outcome of a chunked collective simulation.
type PipelineResult struct {
	// Makespan is the collective completion time in seconds.
	Makespan float64
	// DimBusy is the per-dimension busy time in seconds.
	DimBusy []float64
}

// AvgUtilization returns mean per-dimension busy fraction over the
// makespan — the Fig. 9/Fig. 10 utilization metric.
func (r PipelineResult) AvgUtilization() float64 {
	if r.Makespan <= 0 || len(r.DimBusy) == 0 {
		return 0
	}
	s := 0.0
	for _, b := range r.DimBusy {
		s += b
	}
	return s / (float64(len(r.DimBusy)) * r.Makespan)
}

// DimUtilization returns dimension d's busy fraction.
func (r PipelineResult) DimUtilization(d int) float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.DimBusy[d] / r.Makespan
}

// SimulateCollective runs an m-byte collective split into chunks over the
// multi-rail stage schedule, with in-order chunk dispatch and FIFO
// per-dimension ports (the paper's baseline scheduler). bw is GB/s per
// NPU per dimension. It is Trace without a visitor: pricing records no
// stage events.
func SimulateCollective(op collective.Op, m float64, mapping collective.Mapping, bw topology.BWConfig, chunks int) (PipelineResult, error) {
	return Trace(op, m, mapping, bw, chunks, nil)
}

// Trace is SimulateCollective that also hands visit each chunk-stage as it
// is dispatched; visit may be nil. The dispatcher runs the stage that can
// start earliest and no candidate start ever moves earlier, so events
// arrive in start order, ties going to the lower chunk; only starts within
// the loop's 1e-18 s tie slack may arrive out of order.
func Trace(op collective.Op, m float64, mapping collective.Mapping, bw topology.BWConfig, chunks int, visit func(StageEvent)) (PipelineResult, error) {
	if chunks < 1 {
		return PipelineResult{}, fmt.Errorf("sim: chunk count %d must be ≥ 1", chunks)
	}
	if err := mapping.Validate(len(bw)); err != nil {
		return PipelineResult{}, err
	}
	stages := collective.Stages(op, mapping)
	ndims := len(bw)
	res := PipelineResult{DimBusy: make([]float64, ndims)}
	if len(stages) == 0 || m == 0 {
		return res, nil
	}
	// Per-stage duration for one chunk.
	dur := make([]float64, len(stages))
	for i, s := range stages {
		tr := collective.StageTraffic(op, m/float64(chunks), mapping, s)
		dur[i] = tr / (bw[s.Dim] * 1e9)
	}

	dimFree := make([]float64, ndims)
	ready := make([]float64, chunks) // when each chunk may start its next stage
	next := make([]int, chunks)      // next stage index per chunk
	remaining := chunks * len(stages)
	for remaining > 0 {
		// Dispatch the chunk whose next stage can start earliest
		// (ties: lower chunk index → in-order pipelining).
		bestChunk, bestStart := -1, math.Inf(1)
		for c := 0; c < chunks; c++ {
			if next[c] >= len(stages) {
				continue
			}
			s := stages[next[c]]
			start := math.Max(ready[c], dimFree[s.Dim])
			if start < bestStart-1e-18 {
				bestStart, bestChunk = start, c
			}
		}
		c := bestChunk
		s := stages[next[c]]
		end := bestStart + dur[next[c]]
		if visit != nil {
			visit(StageEvent{Chunk: c, Dim: s.Dim, Op: s.Op, Start: bestStart, End: end})
		}
		res.DimBusy[s.Dim] += dur[next[c]]
		dimFree[s.Dim] = end
		ready[c] = end
		next[c]++
		remaining--
		if end > res.Makespan {
			res.Makespan = end
		}
	}
	return res, nil
}
