// Package themis reimplements the Themis collective scheduler (Rashidi et
// al., ISCA '22 [39]) used in the paper's §VI-D co-design study: a
// runtime, bandwidth-aware greedy scheduler that dynamically assigns data
// chunks to network dimensions to balance per-dimension load, instead of
// the fixed ascending/descending multi-rail order.
//
// Each chunk of a Reduce-Scatter/All-Gather/All-Reduce may traverse the
// network dimensions in any order; the traffic a chunk places on a
// dimension shrinks with the product of the group sizes it has already
// reduced over (and grows as it gathers). When a chunk is ready for its
// next stage, the scheduler greedily picks the needed dimension that
// finishes earliest given current port availability.
//
// Schedule returns sim's collective result type, and SimulateIteration is
// sim.Iterate with Schedule as the collective pricer, so Themis and the
// baseline pipeline share one iteration fold and one result shape.
package themis

import (
	"fmt"
	"math"

	"libra/internal/collective"
	"libra/internal/sim"
	"libra/internal/topology"
)

// phase tracks a chunk through reduce-scatter then all-gather.
type phase int

const (
	phaseRS phase = iota
	phaseAG
	phaseDone
)

type chunkState struct {
	phase   phase
	doneRS  []bool  // dims reduced so far
	doneAG  []bool  // dims gathered so far
	factor  float64 // product of group sizes reduced so far
	held    float64 // current held bytes (for AG traffic)
	readyAt float64
}

// Schedule runs an m-byte collective over the mapping with Themis's
// greedy chunk-to-dimension policy. Supported ops: ReduceScatter,
// AllGather, AllReduce (All-to-All has no dimension-order freedom). Like
// the sim.SimulateCollective baseline it compares against, it records no
// stage events; chunk-stage timelines come only from sim.Trace's visitor.
func Schedule(op collective.Op, m float64, mapping collective.Mapping, bw topology.BWConfig, chunks int) (sim.PipelineResult, error) {
	if chunks < 1 {
		return sim.PipelineResult{}, fmt.Errorf("themis: chunk count %d must be ≥ 1", chunks)
	}
	if err := mapping.Validate(len(bw)); err != nil {
		return sim.PipelineResult{}, err
	}
	if op == collective.AllToAll {
		return sim.PipelineResult{}, fmt.Errorf("themis: All-to-All has no dimension-order freedom to schedule")
	}
	ndims := len(bw)
	res := sim.PipelineResult{DimBusy: make([]float64, ndims)}

	// Active phases only (groups > 1).
	groups := make([]int, ndims)
	var activeDims []int
	totalGroup := 1.0
	for _, p := range mapping.Phases {
		if p.Group > 1 {
			groups[p.Dim] = p.Group
			activeDims = append(activeDims, p.Dim)
			totalGroup *= float64(p.Group)
		}
	}
	if len(activeDims) == 0 || m == 0 {
		return res, nil
	}

	mc := m / float64(chunks)
	states := make([]chunkState, chunks)
	for i := range states {
		states[i] = chunkState{
			doneRS: make([]bool, ndims),
			doneAG: make([]bool, ndims),
			factor: 1,
			held:   mc / totalGroup, // post-RS shard size, used in AG
		}
		switch op {
		case collective.ReduceScatter, collective.AllReduce:
			states[i].phase = phaseRS
		case collective.AllGather:
			states[i].phase = phaseAG
		}
	}

	dimFree := make([]float64, ndims)

	// stageCost returns the bytes chunk s would move on dim d next.
	stageCost := func(s *chunkState, d int) float64 {
		g := float64(groups[d])
		if s.phase == phaseRS {
			return (mc / s.factor) * (g - 1) / g
		}
		return s.held * (g - 1)
	}

	// Optimistic remaining-time lookahead: bestRS[mask] (bestAG[mask]) is
	// the fastest possible queue-free serial time to finish the remaining
	// reduce-scatter (all-gather) stages given the set of already-done
	// active dims encoded in mask (bit i = activeDims[i] done).
	na := len(activeDims)
	full := (1 << na) - 1
	factorOf := make([]float64, full+1)
	for mask := 0; mask <= full; mask++ {
		f := 1.0
		for i, d := range activeDims {
			if mask&(1<<i) != 0 {
				f *= float64(groups[d])
			}
		}
		factorOf[mask] = f
	}
	bestRS := make([]float64, full+1)
	bestAG := make([]float64, full+1)
	for mask := full - 1; mask >= 0; mask-- {
		bestRS[mask] = math.Inf(1)
		bestAG[mask] = math.Inf(1)
		for i, d := range activeDims {
			if mask&(1<<i) != 0 {
				continue
			}
			g := float64(groups[d])
			rs := (mc/factorOf[mask])*(g-1)/g/(bw[d]*1e9) + bestRS[mask|1<<i]
			if rs < bestRS[mask] {
				bestRS[mask] = rs
			}
			// AG sizes mirror RS: gathering with mask done means held
			// size is mc/(totalGroup/factorOf[mask]).
			held := mc / totalGroup * factorOf[mask]
			ag := held*(g-1)/(bw[d]*1e9) + bestAG[mask|1<<i]
			if ag < bestAG[mask] {
				bestAG[mask] = ag
			}
		}
	}
	maskOf := func(done []bool) int {
		mask := 0
		for i, d := range activeDims {
			if done[d] {
				mask |= 1 << i
			}
		}
		return mask
	}
	// remaining returns the optimistic time for chunk s to finish after
	// completing a hypothetical next stage on dim d.
	remaining := func(s *chunkState, d int) float64 {
		if s.phase == phaseRS {
			mask := maskOf(s.doneRS)
			for i, ad := range activeDims {
				if ad == d {
					mask |= 1 << i
				}
			}
			rest := bestRS[mask]
			if op == collective.AllReduce {
				rest += bestAG[0]
			}
			return rest
		}
		mask := maskOf(s.doneAG)
		for i, ad := range activeDims {
			if ad == d {
				mask |= 1 << i
			}
		}
		return bestAG[mask]
	}
	needs := func(s *chunkState, d int) bool {
		if groups[d] == 0 {
			return false
		}
		if s.phase == phaseRS {
			return !s.doneRS[d]
		}
		return !s.doneAG[d]
	}
	advance := func(s *chunkState, d int) {
		g := float64(groups[d])
		if s.phase == phaseRS {
			s.doneRS[d] = true
			s.factor *= g
			for _, ad := range activeDims {
				if !s.doneRS[ad] {
					return
				}
			}
			if op == collective.AllReduce {
				s.phase = phaseAG
			} else {
				s.phase = phaseDone
			}
			return
		}
		s.doneAG[d] = true
		s.held *= g
		for _, ad := range activeDims {
			if !s.doneAG[ad] {
				return
			}
		}
		s.phase = phaseDone
	}

	for {
		// Greedily pick the (chunk, dim) pair minimizing the chunk's
		// projected completion time: stage end plus the optimistic
		// remaining critical path. The lookahead keeps full-size chunks
		// off slow dimensions unless queueing makes the detour pay.
		bestC, bestD := -1, -1
		bestProj, bestEnd, bestStart := math.Inf(1), math.Inf(1), math.Inf(1)
		for ci := range states {
			s := &states[ci]
			if s.phase == phaseDone {
				continue
			}
			for _, d := range activeDims {
				if !needs(s, d) {
					continue
				}
				start := math.Max(s.readyAt, dimFree[d])
				end := start + stageCost(s, d)/(bw[d]*1e9)
				proj := end + remaining(s, d)
				if proj < bestProj-1e-18 || (proj < bestProj+1e-18 && start < bestStart-1e-18) {
					bestProj, bestEnd, bestStart = proj, end, start
					bestC, bestD = ci, d
				}
			}
		}
		if bestC < 0 {
			break // all chunks done
		}
		s := &states[bestC]
		dur := bestEnd - bestStart
		res.DimBusy[bestD] += dur
		dimFree[bestD] = bestEnd
		s.readyAt = bestEnd
		advance(s, bestD)
		if bestEnd > res.Makespan {
			res.Makespan = bestEnd
		}
	}

	// Themis refines from the default multi-rail schedule and never ships
	// a worse one: if the fixed-order pipeline beats the greedy schedule
	// (it can on already-balanced allocations), keep the default.
	base, err := sim.SimulateCollective(op, m, mapping, bw, chunks)
	if err == nil && base.Makespan < res.Makespan {
		res.Makespan = base.Makespan
		copy(res.DimBusy, base.DimBusy)
	}
	return res, nil
}
