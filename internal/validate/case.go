package validate

import (
	"context"

	"libra/internal/collective"
	"libra/internal/sim"
	"libra/internal/themis"
	"libra/internal/topology"
)

// CollectiveCase is one fully-specified collective execution scenario: an
// op of Bytes payload mapped across every dimension of Net, split into
// Chunks, under the per-dimension BW allocation. It is the shared
// scenario-construction path of the conformance matrix, cmd/libra-sim,
// and examples/simulate, so the analytical bound and the simulator
// backends are always priced on identical inputs.
type CollectiveCase struct {
	Net    *topology.Network
	Op     collective.Op
	Bytes  float64
	BW     topology.BWConfig
	Chunks int
}

// Mapping returns the full-network mapping the case executes over.
func (c CollectiveCase) Mapping() collective.Mapping {
	return collective.FullMapping(c.Net)
}

// Analytical returns the closed-form multi-rail completion time (§IV-C's
// bottleneck bound): max over dimensions of traffic/bandwidth.
func (c CollectiveCase) Analytical() float64 {
	return collective.Time(c.Op, c.Bytes, c.Mapping(), c.BW)
}

// AnalyticalDimBusy returns the closed-form per-dimension busy seconds
// (traffic_d / B_d) the simulators are checked against.
func (c CollectiveCase) AnalyticalDimBusy() []float64 {
	traffic := collective.Traffic(c.Op, c.Bytes, c.Mapping(), c.Net.NumDims())
	busy := make([]float64, len(traffic))
	for d, v := range traffic {
		if v > 0 {
			busy[d] = v / (c.BW[d] * 1e9)
		}
	}
	return busy
}

// Pipeline runs the case on the chunk-pipeline simulator (the symmetric
// ASTRA-sim-substitute backend).
func (c CollectiveCase) Pipeline() (sim.PipelineResult, error) {
	return sim.SimulateCollective(c.Op, c.Bytes, c.Mapping(), c.BW, c.Chunks)
}

// NPULevel runs the case on the NPU-level transfer-DAG simulator, which
// schedules every individual message over per-NPU TX/RX ports; a done
// ctx stops the run with ctx.Err().
func (c CollectiveCase) NPULevel(ctx context.Context) (sim.NetResult, error) {
	return sim.SimulateCollectiveNPULevel(ctx, c.Net, c.Op, c.Bytes, c.Mapping(), c.BW, c.Chunks)
}

// Themis runs the case under the Themis greedy chunk scheduler.
func (c CollectiveCase) Themis() (sim.PipelineResult, error) {
	return themis.Schedule(c.Op, c.Bytes, c.Mapping(), c.BW, c.Chunks)
}
