package themis

import (
	"libra/internal/collective"
	"libra/internal/sim"
	"libra/internal/topology"
	"libra/internal/workload"
)

// SimulateIteration runs one training iteration with Themis scheduling
// every Reduce-Scatter/All-Gather/All-Reduce (All-to-All keeps the
// baseline multi-rail pipeline, which has no ordering freedom). It is
// sim.SimulateIteration with Themis as the collective pricer, so the two
// are directly comparable.
func SimulateIteration(cfg sim.TrainingConfig, w *workload.Workload, bw topology.BWConfig) (sim.TrainingResult, error) {
	return sim.Iterate(cfg, w, bw, price)
}

// price is the Themis collective pricer: Schedule, or the baseline
// pipeline for All-to-All.
func price(op collective.Op, m float64, mapping collective.Mapping, bw topology.BWConfig, chunks int) (sim.PipelineResult, error) {
	if op == collective.AllToAll {
		return sim.SimulateCollective(op, m, mapping, bw, chunks)
	}
	return Schedule(op, m, mapping, bw, chunks)
}
