package sim

import (
	"fmt"

	"libra/internal/collective"
	"libra/internal/compute"
	"libra/internal/timemodel"
	"libra/internal/topology"
	"libra/internal/workload"
)

// TrainingConfig drives an iteration-level simulation.
type TrainingConfig struct {
	Net     *topology.Network
	Compute compute.Model
	Loop    timemodel.Loop
	Policy  timemodel.MappingPolicy
	// Chunks is the per-collective chunk count (the paper splits every
	// collective into 64 chunks, §V-B).
	Chunks int
}

// DefaultChunks is the paper's per-collective chunk count.
const DefaultChunks = 64

// TrainingResult reports a simulated training iteration.
type TrainingResult struct {
	// Total is the simulated end-to-end iteration time.
	Total float64
	// CommTime is the summed simulated collective makespan.
	CommTime float64
	// ComputeOnly is the communication-free floor.
	ComputeOnly float64
	// DimBusy is per-dimension busy seconds per iteration.
	DimBusy []float64
	// Utilization is DimBusy averaged over dims divided by the total
	// collective window.
	Utilization float64
}

// CollectivePricer simulates one collective (an m-byte op over mapping,
// split into chunks): its makespan and per-dimension busy time.
// SimulateCollective is the baseline pricer.
type CollectivePricer func(op collective.Op, m float64, mapping collective.Mapping, bw topology.BWConfig, chunks int) (PipelineResult, error)

// SimulateIteration runs one training iteration, pricing every collective
// with the chunk-pipeline simulator instead of the closed-form model.
// Chunked pipelining lets consecutive stages of different chunks overlap,
// so the simulated collective time approaches — but never beats — the
// analytical bottleneck bound, with a small pipeline fill/drain penalty
// (the "inevitable scheduling bubbles" of Fig. 9c).
func SimulateIteration(cfg TrainingConfig, w *workload.Workload, bw topology.BWConfig) (TrainingResult, error) {
	// Chunks 0 means DefaultChunks, so only a negative count is invalid.
	if cfg.Chunks < 0 {
		return TrainingResult{}, fmt.Errorf("sim: chunk count %d must be ≥ 1", cfg.Chunks)
	}
	return Iterate(cfg, w, bw, SimulateCollective)
}

// Iterate runs one training iteration with every collective priced by
// price: it maps the workload's strategy onto the network, simulates each
// layer's collectives once, scales them by the layer's copy count, and
// folds the layer's stage times under cfg.Loop (Fig. 5).
func Iterate(cfg TrainingConfig, w *workload.Workload, bw topology.BWConfig, price CollectivePricer) (TrainingResult, error) {
	if cfg.Chunks == 0 {
		cfg.Chunks = DefaultChunks
	}
	if err := bw.Validate(cfg.Net); err != nil {
		return TrainingResult{}, err
	}
	if err := w.Validate(); err != nil {
		return TrainingResult{}, err
	}
	maps, err := timemodel.MapStrategy(cfg.Net, w.Strategy, cfg.Policy)
	if err != nil {
		return TrainingResult{}, err
	}

	res := TrainingResult{DimBusy: make([]float64, cfg.Net.NumDims())}
	commOf := func(cs []workload.Comm) (float64, error) {
		total := 0.0
		for _, c := range cs {
			pr, err := price(c.Op, c.Bytes, maps.ForScope(c.Scope), bw, cfg.Chunks)
			if err != nil {
				return 0, err
			}
			total += pr.Makespan
			for d, b := range pr.DimBusy {
				res.DimBusy[d] += b
			}
		}
		return total, nil
	}

	preBusy := make([]float64, len(res.DimBusy))
	for _, l := range w.Layers {
		n := float64(l.Count)
		fwdComp := cfg.Compute.Time(l.FwdFLOPs, l.FwdBytes)
		tpComp := cfg.Compute.Time(l.TPFLOPs, l.TPBytes)
		dpComp := cfg.Compute.Time(l.DPFLOPs, l.DPBytes)

		copy(preBusy, res.DimBusy)
		fwdComm, err := commOf(l.FwdComm)
		if err != nil {
			return TrainingResult{}, err
		}
		tpComm, err := commOf(l.TPComm)
		if err != nil {
			return TrainingResult{}, err
		}
		dpComm, err := commOf(l.DPComm)
		if err != nil {
			return TrainingResult{}, err
		}
		for d := range res.DimBusy {
			res.DimBusy[d] = preBusy[d] + n*(res.DimBusy[d]-preBusy[d])
		}
		res.CommTime += n * (fwdComm + tpComm + dpComm)
		res.ComputeOnly += n * (fwdComp + tpComp + dpComp)
		res.Total += n * cfg.Loop.LayerTime(fwdComp, fwdComm, tpComp, tpComm, dpComp, dpComm)
	}
	if res.CommTime > 0 {
		sum := 0.0
		for _, b := range res.DimBusy {
			sum += b
		}
		res.Utilization = sum / (float64(len(res.DimBusy)) * res.CommTime)
	}
	return res, nil
}
