// Package validate cross-checks LIBRA's analytical time model against its
// event-driven simulators — the paper's §V validation methodology (the
// ~5%-mean-error comparison against ASTRA-sim) as a regression-gated
// subsystem instead of a one-off claim.
//
// A conformance run enumerates a scenario matrix (workload presets ×
// topology presets × training loops, plus raw collective patterns ×
// topologies × simulator paths), prices every scenario with both the
// closed-form estimator (internal/timemodel, collective.Time) and the
// event-driven simulators (internal/sim's chunk-pipeline and transfer-DAG
// backends), and reports per-scenario and aggregate divergence: relative
// error on total time and on per-dimension busy time, with tolerance
// verdicts and per-scenario skip reasons where a simulator cannot model
// the configuration (in-network reduction offload, transfer-DAG scale
// caps, strategies that do not map onto a topology).
//
// Scenarios execute concurrently through a Runner — typically
// *core.Engine via its generic DoCodec API, which bounds workers,
// deduplicates identical scenarios in flight, and memoizes outcomes in
// the LRU cache — so repeated validation runs (CI on every push) are
// nearly free. A scenario that fails carries its message in Error, in
// place, so a report reads the same in process and decoded from JSON. A
// caller that leaves stops a transfer-DAG scenario mid-run: the
// simulator polls the computation's context.
package validate

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"libra/internal/collective"
	"libra/internal/compute"
	"libra/internal/core"
	"libra/internal/sim"
	"libra/internal/timemodel"
	"libra/internal/topology"
	"libra/internal/workload"
)

// Runner executes cached scenario computations; *core.Engine satisfies
// it, letting validate outcomes spill through codec to the engine's disk
// tier (under the "validate" TTL kind) and survive restarts.
// Implementations must be safe for concurrent use — Compute issues every
// scenario at once and bounds nothing itself.
type Runner interface {
	DoCodec(ctx context.Context, key string, codec core.Codec, compute func(context.Context) (any, error)) (any, bool, error)
}

// outcomeCodec persists scenario outcomes through the disk tier.
var outcomeCodec = core.JSONCodec[outcome]()

// Scenario paths: which simulator backend answered the scenario.
const (
	// PathPipeline is the chunk-pipeline simulator (symmetric per-NPU
	// ports; the backend that scales to thousands of NPUs).
	PathPipeline = "pipeline"
	// PathTransferDAG is the NPU-level transfer-graph simulator.
	PathTransferDAG = "transfer-dag"
)

// Scenario kinds.
const (
	// KindCollective compares one raw collective's closed-form bound
	// against a simulator backend.
	KindCollective = "collective"
	// KindIteration compares a full training iteration (estimator vs
	// chunk-pipeline simulation of every collective in the loop).
	KindIteration = "iteration"
)

// Scenario is one evaluated (or skipped) cell of the conformance matrix.
type Scenario struct {
	// ID is the stable "kind/topology/subject[/loop|/path]" handle used
	// in baselines and cache keys.
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Topology is the axis spelling; NPUs the resolved system size.
	Topology string `json:"topology"`
	NPUs     int    `json:"npus,omitempty"`
	// Workload and Loop identify iteration scenarios; Collective and
	// Path identify raw collective scenarios.
	Workload   string `json:"workload,omitempty"`
	Loop       string `json:"loop,omitempty"`
	Collective string `json:"collective,omitempty"`
	Path       string `json:"path"`
	// AnalyticalS and SimulatedS are the two models' answers in seconds.
	AnalyticalS float64 `json:"analytical_s,omitempty"`
	SimulatedS  float64 `json:"simulated_s,omitempty"`
	// RelErr is (simulated − analytical) / analytical. The chunk
	// pipeline can never beat the analytical bound, so it is normally a
	// small positive number (scheduling bubbles, Fig. 9c).
	RelErr float64 `json:"rel_err"`
	// DimBusyMaxRelErr is the worst per-dimension |relative error| of
	// busy time — near zero whenever both models price traffic
	// identically.
	DimBusyMaxRelErr float64 `json:"dim_busy_max_rel_err"`
	// Within is the tolerance verdict: both |RelErr| and
	// DimBusyMaxRelErr within the spec tolerance.
	Within bool `json:"within"`
	// Skipped scenarios carry the reason the comparison cannot run.
	Skipped bool   `json:"skipped,omitempty"`
	Reason  string `json:"reason,omitempty"`
	// Cached reports a Runner cache hit.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Report is a computed conformance matrix.
type Report struct {
	// Tolerance is the gate every evaluated scenario was checked against.
	Tolerance float64 `json:"tolerance"`
	// Scenarios lists every cell in matrix order (collective scenarios
	// first, then iterations), skips and failures in place.
	Scenarios []Scenario `json:"scenarios"`
	// Evaluated/Skipped/Failed partition the scenario list.
	Evaluated int `json:"evaluated"`
	Skipped   int `json:"skipped"`
	Failed    int `json:"failed,omitempty"`
	// MeanAbsRelErr and MaxAbsRelErr aggregate |RelErr| over evaluated
	// scenarios; WorstID names the arg-max.
	MeanAbsRelErr float64 `json:"mean_abs_rel_err"`
	MaxAbsRelErr  float64 `json:"max_abs_rel_err"`
	WorstID       string  `json:"worst_id,omitempty"`
	// Pass is the gate: every evaluated scenario within tolerance, the
	// aggregate mean within tolerance, and no scenario failed.
	Pass bool `json:"pass"`
	// Solves counts freshly computed scenarios; CacheHits counts
	// scenarios served from the Runner's cache.
	Solves    int     `json:"solves"`
	CacheHits int     `json:"cache_hits"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// outcome is the cached payload of one scenario computation. Values are
// immutable once computed — the Runner shares them across callers.
// Fields are exported (with stable JSON tags) so outcomeCodec can
// persist them across restarts.
type outcome struct {
	Analytical  float64 `json:"analytical"`
	Simulated   float64 `json:"simulated"`
	RelErr      float64 `json:"rel_err"`
	DimBusyRelE float64 `json:"dim_busy_rel_err"`
}

// measure compares an analytical (total, per-dim busy) answer against a
// simulated one.
func measure(analytical, simulated float64, anaBusy, simBusy []float64) (outcome, error) {
	o := outcome{Analytical: analytical, Simulated: simulated}
	if !(analytical > 0) || math.IsInf(simulated, 0) || math.IsNaN(simulated) {
		return outcome{}, fmt.Errorf("validate: degenerate scenario (analytical %v s, simulated %v s)", analytical, simulated)
	}
	o.RelErr = (simulated - analytical) / analytical
	scale := 0.0
	for _, b := range anaBusy {
		if b > scale {
			scale = b
		}
	}
	for d, ana := range anaBusy {
		var simB float64
		if d < len(simBusy) {
			simB = simBusy[d]
		}
		denom := ana
		if denom == 0 {
			// A dimension the analytical model says is idle: measure any
			// simulated activity against the busiest dimension's scale.
			denom = scale
		}
		if denom == 0 {
			continue
		}
		if e := math.Abs(simB-ana) / denom; e > o.DimBusyRelE {
			o.DimBusyRelE = e
		}
	}
	return o, nil
}

// job is one runnable scenario: the output shell plus the cache key and
// compute closure (nil when pre-skipped).
type job struct {
	scenario Scenario
	key      string
	run      func(context.Context) (any, error)
}

// enumerate expands the resolved spec into the scenario list. Per-cell
// infeasibility (a workload that cannot instantiate or map, a simulator
// limitation) becomes a skipped scenario, never an error.
func (r *resolved) enumerate() []job {
	var jobs []job
	// Cache keys carry exactly the inputs each scenario kind depends on,
	// so runs that differ only in an irrelevant axis still share outcomes.
	budgetKey := "b=" + formatFloat(r.budget)
	collectiveKey := budgetKey + "|m=" + formatFloat(r.bytes)

	for _, topoName := range r.topologies {
		net, err := (&core.ProblemSpec{Topology: topoName}).Network()
		if err != nil {
			continue // resolve() already vetted every topology
		}
		npus := net.NPUs()
		bw := topology.EqualBW(r.budget, net.NumDims())
		offload := switchOffload(net, r.inNetwork)

		// Raw collective scenarios: both simulator paths per op.
		for _, op := range r.collectives {
			for _, path := range []string{PathPipeline, PathTransferDAG} {
				sc := Scenario{
					ID:         fmt.Sprintf("%s/%s/%s/%s", KindCollective, topoName, op.Key(), path),
					Kind:       KindCollective,
					Topology:   topoName,
					NPUs:       npus,
					Collective: op.String(),
					Path:       path,
				}
				j := job{scenario: sc}
				chunks := r.chunks
				if path == PathTransferDAG {
					chunks = r.npuChunks
				}
				if reason := r.collectiveSkip(net, offload, op, path); reason != "" {
					j.scenario.skip(reason)
				} else {
					cc := CollectiveCase{Net: net, Op: op, Bytes: r.bytes, BW: bw, Chunks: chunks}
					j.key = fmt.Sprintf("validate|%s|%s|c=%d", sc.ID, collectiveKey, chunks)
					j.run = collectiveRun(cc, path)
				}
				jobs = append(jobs, j)
			}
		}

		// Training-iteration scenarios.
		for _, wlName := range r.workloads {
			wl, wlErr := workload.Preset(wlName, npus)
			for _, loop := range r.loops {
				sc := Scenario{
					ID:       fmt.Sprintf("%s/%s/%s/%s", KindIteration, topoName, wlName, loop.Key()),
					Kind:     KindIteration,
					Topology: topoName,
					NPUs:     npus,
					Workload: wlName,
					Loop:     loop.Key(),
					Path:     PathPipeline,
				}
				j := job{scenario: sc}
				switch {
				case wlErr != nil:
					j.scenario.skip(wlErr.Error())
				case offload != nil && usesAllReduce(wl):
					j.scenario.skip("the simulators cannot model in-network (switch-offload) All-Reduce reduction")
				default:
					if _, mapErr := timemodel.MapStrategy(net, wl.Strategy, timemodel.Actual); mapErr != nil {
						j.scenario.skip(mapErr.Error())
						jobs = append(jobs, j)
						continue
					}
					j.key = fmt.Sprintf("validate|%s|%s|c=%d", sc.ID, budgetKey, r.chunks)
					j.run = iterationRun(net, wl, loop, r.chunks, bw)
				}
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

// collectiveSkip returns why the simulators cannot run op over path on
// net (offload is switchOffload's flags for it), or "" when they can.
func (r *resolved) collectiveSkip(net *topology.Network, offload []bool, op collective.Op, path string) string {
	switch {
	case offload != nil && op == collective.AllReduce:
		return "the simulators cannot model in-network (switch-offload) All-Reduce reduction"
	case path == PathTransferDAG && net.NPUs() > r.npuMax:
		return fmt.Sprintf("transfer-DAG simulation is capped at %d NPUs (topology has %d)", r.npuMax, net.NPUs())
	}
	return ""
}

func (s *Scenario) skip(reason string) {
	s.Skipped = true
	s.Reason = reason
}

// switchOffload returns the per-dimension offload flags when in-network
// execution is requested and the topology has switch dimensions, nil
// otherwise (nothing to offload).
func switchOffload(net *topology.Network, inNetwork bool) []bool {
	if !inNetwork {
		return nil
	}
	flags := make([]bool, net.NumDims())
	any := false
	for i, d := range net.Dims() {
		if d.Kind == topology.Switch {
			flags[i] = true
			any = true
		}
	}
	if !any {
		return nil
	}
	return flags
}

// usesAllReduce reports whether any layer of the workload issues an
// All-Reduce (the only op in-network offload changes).
func usesAllReduce(w *workload.Workload) bool {
	for _, l := range w.Layers {
		for _, cs := range [][]workload.Comm{l.FwdComm, l.TPComm, l.DPComm} {
			for _, c := range cs {
				if c.Op == collective.AllReduce {
					return true
				}
			}
		}
	}
	return false
}

// collectiveRun builds the compute closure of one raw collective
// scenario.
func collectiveRun(cc CollectiveCase, path string) func(context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		anaBusy := cc.AnalyticalDimBusy()
		analytical := cc.Analytical()
		var makespan float64
		var dimBusy []float64
		if path == PathTransferDAG {
			res, err := cc.NPULevel(ctx)
			if err != nil {
				return nil, err
			}
			makespan, dimBusy = res.Makespan, res.DimBusy
		} else {
			res, err := cc.Pipeline()
			if err != nil {
				return nil, err
			}
			makespan, dimBusy = res.Makespan, res.DimBusy
		}
		return measure(analytical, makespan, anaBusy, dimBusy)
	}
}

// iterationRun builds the compute closure of one training-iteration
// scenario: the closed-form estimator against the chunk-pipeline
// iteration simulation, on identical inputs.
func iterationRun(net *topology.Network, wl *workload.Workload, loop timemodel.Loop, chunks int, bw topology.BWConfig) func(context.Context) (any, error) {
	return func(context.Context) (any, error) {
		est := &timemodel.Estimator{Net: net, Compute: compute.A100(), Loop: loop, Policy: timemodel.Actual}
		b, err := est.Iteration(wl, bw)
		if err != nil {
			return nil, err
		}
		tr, err := sim.SimulateIteration(sim.TrainingConfig{
			Net: net, Compute: compute.A100(), Loop: loop, Policy: timemodel.Actual, Chunks: chunks,
		}, wl, bw)
		if err != nil {
			return nil, err
		}
		return measure(b.Total, tr.Total, b.DimBusy, tr.DimBusy)
	}
}

// Compute runs the conformance matrix: enumerate the scenarios, execute
// every runnable cell concurrently through the Runner (which bounds
// workers and caches outcomes), and aggregate divergence with tolerance
// verdicts. The call fails only for an invalid spec, a nil runner, or a
// canceled context; per-scenario failures are reported in place (and fail
// the Pass verdict).
func Compute(ctx context.Context, r Runner, spec *Spec) (*Report, error) {
	if r == nil {
		return nil, fmt.Errorf("validate: nil runner")
	}
	if spec == nil {
		spec = &Spec{}
	}
	res, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	jobs := res.enumerate()

	runnable := 0
	for i := range jobs {
		if jobs[i].run != nil {
			runnable++
		}
	}
	tracker := core.NewProgressTracker(ctx, "validate", runnable)
	var wg sync.WaitGroup
	for i := range jobs {
		if jobs[i].run == nil {
			continue
		}
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			v, cached, err := r.DoCodec(ctx, j.key, outcomeCodec, j.run)
			tracker.Tick(err == nil && cached)
			if err != nil {
				j.scenario.Error = err.Error()
				return
			}
			o, ok := v.(outcome)
			if !ok {
				j.scenario.Error = fmt.Sprintf("validate: scenario key %q returned a foreign cache payload %T", j.key, v)
				return
			}
			j.scenario.Cached = cached
			j.scenario.AnalyticalS = o.Analytical
			j.scenario.SimulatedS = o.Simulated
			j.scenario.RelErr = o.RelErr
			j.scenario.DimBusyMaxRelErr = o.DimBusyRelE
		}(&jobs[i])
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &Report{Tolerance: res.tolerance, Scenarios: make([]Scenario, len(jobs))}
	sum := 0.0
	for i := range jobs {
		sc := jobs[i].scenario
		switch {
		case sc.Skipped:
			rep.Skipped++
		case sc.Error != "":
			rep.Failed++
		default:
			sc.Within = math.Abs(sc.RelErr) <= res.tolerance && sc.DimBusyMaxRelErr <= res.tolerance
			rep.Evaluated++
			if sc.Cached {
				rep.CacheHits++
			} else {
				rep.Solves++
			}
			abs := math.Abs(sc.RelErr)
			sum += abs
			if abs > rep.MaxAbsRelErr || rep.WorstID == "" {
				rep.MaxAbsRelErr = abs
				rep.WorstID = sc.ID
			}
		}
		rep.Scenarios[i] = sc
	}
	if rep.Evaluated > 0 {
		rep.MeanAbsRelErr = sum / float64(rep.Evaluated)
	}
	// A matrix that evaluated nothing validated nothing: Pass demands at
	// least one real comparison, so a spec whose every scenario skips
	// cannot vacuously report conformance.
	rep.Pass = rep.Evaluated > 0 && rep.Failed == 0 && rep.MeanAbsRelErr <= res.tolerance
	for _, sc := range rep.Scenarios {
		if !sc.Skipped && sc.Error == "" && !sc.Within {
			rep.Pass = false
			break
		}
	}
	rep.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return rep, nil
}

// ---- Golden baseline form ----

// BaselineScenario is the committed-baseline projection of a scenario:
// only deterministic fields, floats rounded so the JSON is byte-stable
// across machines.
type BaselineScenario struct {
	ID               string  `json:"id"`
	AnalyticalS      float64 `json:"analytical_s,omitempty"`
	SimulatedS       float64 `json:"simulated_s,omitempty"`
	RelErr           float64 `json:"rel_err,omitempty"`
	DimBusyMaxRelErr float64 `json:"dim_busy_max_rel_err,omitempty"`
	Within           bool    `json:"within,omitempty"`
	Skipped          bool    `json:"skipped,omitempty"`
	Reason           string  `json:"reason,omitempty"`
	Error            string  `json:"error,omitempty"`
}

// BaselineReport is the stable, diffable projection of a Report — what
// VALIDATION_baseline.json commits and CI regenerates: no timings, no
// cache metadata.
type BaselineReport struct {
	Tolerance     float64            `json:"tolerance"`
	Evaluated     int                `json:"evaluated"`
	Skipped       int                `json:"skipped"`
	Failed        int                `json:"failed,omitempty"`
	MeanAbsRelErr float64            `json:"mean_abs_rel_err"`
	MaxAbsRelErr  float64            `json:"max_abs_rel_err"`
	WorstID       string             `json:"worst_id,omitempty"`
	Pass          bool               `json:"pass"`
	Scenarios     []BaselineScenario `json:"scenarios"`
}

// Baseline projects the report onto its committed-golden form.
func (r *Report) Baseline() BaselineReport {
	b := BaselineReport{
		Tolerance:     roundBaseline(r.Tolerance),
		Evaluated:     r.Evaluated,
		Skipped:       r.Skipped,
		Failed:        r.Failed,
		MeanAbsRelErr: roundBaseline(r.MeanAbsRelErr),
		MaxAbsRelErr:  roundBaseline(r.MaxAbsRelErr),
		WorstID:       r.WorstID,
		Pass:          r.Pass,
	}
	for _, sc := range r.Scenarios {
		b.Scenarios = append(b.Scenarios, BaselineScenario{
			ID:               sc.ID,
			AnalyticalS:      roundBaseline(sc.AnalyticalS),
			SimulatedS:       roundBaseline(sc.SimulatedS),
			RelErr:           roundBaseline(sc.RelErr),
			DimBusyMaxRelErr: roundBaseline(sc.DimBusyMaxRelErr),
			Within:           sc.Within,
			Skipped:          sc.Skipped,
			Reason:           sc.Reason,
			Error:            sc.Error,
		})
	}
	return b
}

// roundBaseline rounds to 9 decimal digits — far below any divergence the
// gate cares about, far above float formatting jitter.
func roundBaseline(v float64) float64 {
	return math.Round(v*1e9) / 1e9
}
