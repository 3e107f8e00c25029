// Package libra is a workload-aware, design-time optimization framework
// for the multi-dimensional networks of large-scale AI training systems —
// a from-scratch Go reproduction of "LIBRA: Enabling Workload-Aware
// Multi-Dimensional Network Topology Optimization for Distributed Training
// of Large AI Models" (Won, Rashidi, Srinivasan, Krishna; ISPASS 2024).
//
// Given a multi-dimensional network shape (e.g. "RI(4)_FC(8)_RI(4)_SW(32)"),
// a set of target DNN workloads, a dollar cost model, and linear design
// constraints, LIBRA analytically models end-to-end training time as a
// function of the per-dimension bandwidth vector and searches for the
// allocation maximizing either training performance (PerfOptBW) or
// performance-per-cost (PerfPerCostOptBW).
//
// Quick start:
//
//	net := libra.MustParseTopology("RI(4)_FC(8)_RI(4)_SW(32)")
//	gpt3, _ := libra.GPT3(net.NPUs())
//	problem := libra.NewProblem(net, 500 /* GB/s per NPU */, gpt3)
//	result, _ := problem.Optimize()
//	fmt.Println(result.BW) // optimized GB/s per dimension
//
// That is one of two construction paths: NewProblem plus direct field
// assignment (Objective, Loop, Constraints, SkipBudget, ...), or a
// declarative, serializable ProblemSpec (a Go literal or JSON) that Build
// turns into a Problem, that round-trips through Problem.Spec, and that
// fingerprints canonically for caching:
//
//	spec := &libra.ProblemSpec{
//	    Topology:    "4D-4K",
//	    BudgetGBps:  500,
//	    Workloads:   []libra.WorkloadSpec{{Preset: "GPT-3"}},
//	    Objective:   "perf-per-cost",
//	    Constraints: []libra.ConstraintSpec{libra.DimCap(4, 50)},
//	}
//	p, _ := spec.Build()
//	r, _ := p.OptimizeContext(ctx) // cancellable
//
// Engine layers a concurrent service on top: a bounded worker pool, an
// LRU result cache keyed by spec fingerprint, and batch/sweep APIs —
// cmd/libra-serve exposes it over HTTP.
//
// The package root re-exports the user-facing surface; implementation
// lives under internal/: topology (network shapes and graphs), workload
// (the Table II model zoo and a parametric transformer generator),
// collective (the multi-rail analytical model), cost (Table I),
// timemodel (training-loop time estimation), opt (the constrained
// optimizer standing in for Gurobi), core (the LIBRA framework), sim (the
// ASTRA-sim-substitute chunk/NPU-level simulators), themis and tacos (the
// runtime co-design substrates), and experiments (every paper figure).
package libra

import (
	"context"
	"io"
	"log/slog"

	"libra/internal/cluster"
	"libra/internal/codesign"
	"libra/internal/collective"
	"libra/internal/compute"
	"libra/internal/core"
	"libra/internal/frontier"
	"libra/internal/jobs"
	"libra/internal/opt"
	"libra/internal/tacos"
	"libra/internal/task"
	"libra/internal/telemetry"
	"libra/internal/timemodel"
	"libra/internal/topology"
	"libra/internal/validate"
	"libra/internal/workload"
)

// ---- Topology ----

// Network is a multi-dimensional network topology.
type Network = topology.Network

// Dim is one network dimension (building block, size, physical tier).
type Dim = topology.Dim

// BWConfig is a per-dimension bandwidth allocation in GB/s per NPU.
type BWConfig = topology.BWConfig

// Tier is a dimension's physical connotation (Chiplet/Package/Node/Pod).
type Tier = topology.Tier

// Unit topology kinds and tiers.
const (
	Ring           = topology.Ring
	FullyConnected = topology.FullyConnected
	Switch         = topology.Switch

	Chiplet = topology.Chiplet
	Package = topology.Package
	Node    = topology.Node
	Pod     = topology.Pod
)

// ParseTopology reads the block notation, e.g. "RI(4)_FC(8)_RI(4)_SW(32)".
func ParseTopology(s string) (*Network, error) { return topology.Parse(s) }

// MustParseTopology is ParseTopology, panicking on error.
func MustParseTopology(s string) *Network { return topology.MustParse(s) }

// PresetTopology returns a Table III evaluation topology by name
// ("4D-4K", "3D-4K", "3D-512", "3D-1K", "4D-2K", "3D-Torus").
func PresetTopology(name string) (*Network, error) { return topology.Preset(name) }

// EqualBW splits a per-NPU bandwidth budget evenly across n dimensions —
// the paper's workload-agnostic baseline.
func EqualBW(total float64, n int) BWConfig { return topology.EqualBW(total, n) }

// ---- Workloads ----

// Workload is a DNN training workload: layers with compute costs and
// collective-communication calls under a parallelization strategy.
type Workload = workload.Workload

// Strategy is a hybrid parallelization HP-(TP, DP).
type Strategy = workload.Strategy

// TransformerConfig parameterizes a Megatron-style transformer.
type TransformerConfig = workload.TransformerConfig

// Table II workload presets; npus is the target system size.
var (
	TuringNLG = workload.TuringNLG
	GPT3      = workload.GPT3
	MSFT1T    = workload.MSFT1T
	DLRM      = workload.DLRM
	ResNet50  = workload.ResNet50
)

// MemoryFootprint is a per-NPU training-memory breakdown (fp16 weights
// and ZeRO-sharded gradients/optimizer state, checkpointed activations).
type MemoryFootprint = workload.MemoryFootprint

// DefaultNPUMemoryGB is the A100-80GB capacity — the value to pass as a
// CoDesignSpec.MemoryGB feasibility cap when no specific device is being
// modeled; it is never applied implicitly (unset means unlimited).
const DefaultNPUMemoryGB = workload.DefaultNPUMemoryGB

// TransformerFootprint models the per-NPU memory a Megatron + ZeRO-2
// transformer occupies under a strategy — the feasibility predicate the
// co-design subsystem filters candidate strategies with.
func TransformerFootprint(cfg TransformerConfig, s Strategy, minibatch int) (MemoryFootprint, error) {
	return workload.TransformerFootprint(cfg, s, minibatch)
}

// WorkloadPreset builds a Table II workload by name.
func WorkloadPreset(name string, npus int) (*Workload, error) { return workload.Preset(name, npus) }

// ---- Cost and compute models ----

// ComputeModel converts FLOPs/bytes to NPU seconds.
type ComputeModel = compute.Model

// A100 returns the paper's compute model (234 TFLOPS effective).
func A100() ComputeModel { return compute.A100() }

// ---- The LIBRA framework ----

// Problem is a LIBRA optimization instance.
type Problem = core.Problem

// Target is one weighted workload of a multi-workload optimization.
type Target = core.Target

// Result is an evaluated bandwidth design point.
type Result = core.Result

// Objective selects PerfOptBW or PerfPerCostOptBW.
type Objective = core.Objective

// Optimization objectives.
const (
	PerfOpt        = core.PerfOpt
	PerfPerCostOpt = core.PerfPerCostOpt
)

// Training loops (paper Fig. 5).
const (
	NoOverlap   = timemodel.NoOverlap
	TPDPOverlap = timemodel.TPDPOverlap
)

// NewProblem builds a Problem with the paper's defaults (A100 compute,
// Table I costs, no-overlap loop, PerfOpt objective).
func NewProblem(net *Network, budgetGBps float64, targets ...*Workload) *Problem {
	return core.NewProblem(net, budgetGBps, targets...)
}

// ---- Declarative specs ----

// ProblemSpec is a fully serializable (JSON) description of an
// optimization instance; Build materializes it, Problem.Spec reverses it,
// and Fingerprint keys the Engine cache.
type ProblemSpec = core.ProblemSpec

// WorkloadSpec declares one weighted target workload (preset name or
// inline transformer shape).
type WorkloadSpec = core.WorkloadSpec

// TransformerSpec is a declarative transformer workload: architecture
// shape plus HP-(TP[, PP], DP) strategy.
type TransformerSpec = core.TransformerSpec

// ConstraintSpec is one declarative linear design constraint (1-based
// dimensions).
type ConstraintSpec = core.ConstraintSpec

// ComputeSpec / CostSpec / SolverSpec mirror the model types as JSON.
type (
	ComputeSpec = core.ComputeSpec
	CostSpec    = core.CostSpec
	SolverSpec  = core.SolverSpec
)

// SolverOptions tunes the constrained optimizer: multistart count, seed,
// iteration/tolerance limits, worker parallelism (Workers: 0 = GOMAXPROCS,
// 1 = sequential; results are bit-identical either way for a fixed seed),
// and the per-start search strategy.
type SolverOptions = opt.Options

// Solver strategies. The default (the zero value) picks each start's
// local search from the objective's convexity: projected gradient for
// perf, coordinate descent for perf-per-cost, each with a Nelder-Mead
// polish.
const (
	// StrategyProjectedGradient is another spelling of the default: it
	// runs projected gradient only on convex (perf) objectives.
	//
	// Deprecated: the name promises projected gradient on every
	// objective, which no strategy provides any more; leave
	// SolverOptions.Strategy empty for the same behaviour.
	StrategyProjectedGradient = opt.StrategyProjectedGradient
	// StrategyCoordinateDescent runs discrete coordinate descent over BW
	// partitions (the paper's exhaustive-search flavor) alone, with no
	// polish, whatever the objective.
	StrategyCoordinateDescent = opt.StrategyCoordinateDescent
)

// Sentinel solver option values for settings whose zero value means "use
// the default": TolExact requests an exactly-zero improvement tolerance,
// SeedZero the literal PRNG seed 0.
const (
	TolExact = opt.TolExact
	SeedZero = opt.SeedZero
)

// Evaluator prices design points for a validated Problem with per-problem
// work (validation, mapping resolution, cost rates) hoisted out of the
// per-point path.
type Evaluator = core.Evaluator

// ParseSpec decodes a ProblemSpec from JSON, rejecting unknown fields.
func ParseSpec(data []byte) (*ProblemSpec, error) { return core.ParseSpec(data) }

// Declarative constraint constructors.
var (
	DimCap            = core.DimCap
	DimFloor          = core.DimFloor
	OrderedDims       = core.OrderedDims
	PairSum           = core.PairSum
	SumAtMost         = core.SumAtMost
	DollarBudget      = core.DollarBudget
	WeightedSumAtMost = core.WeightedSumAtMost
)

// ---- The Engine service layer ----

// Engine is the concurrent service layer: bounded worker pool, LRU result
// cache keyed by spec fingerprint, single-flight deduplication, and
// batch/sweep APIs. cmd/libra-serve exposes it over HTTP.
type Engine = core.Engine

// EngineConfig tunes the Engine (workers, cache size).
type EngineConfig = core.EngineConfig

// EngineResult is a service-layer answer with cache/timing metadata.
type EngineResult = core.EngineResult

// EngineStats reports cache effectiveness and current load.
type EngineStats = core.EngineStats

// BatchResult is one entry of a batch operation.
type BatchResult = core.BatchResult

// SweepRequest and SweepPoint drive Engine.Sweep — topology × budget ×
// objective grids against a base spec.
type (
	SweepRequest = core.SweepRequest
	SweepPoint   = core.SweepPoint
)

// NewEngine builds an Engine; Close releases it.
func NewEngine(cfg EngineConfig) *Engine { return core.NewEngine(cfg) }

// ErrBadSpec marks client-side spec errors from Engine operations, so
// service layers can split caller mistakes from solver failures.
var ErrBadSpec = core.ErrBadSpec

// ---- The task envelope and async jobs ----

// Task is the polymorphic task envelope — the one serializable currency
// every service surface speaks: {"kind": "optimize|evaluate|sweep|
// frontier|codesign|validate|cluster", "spec": <that kind's request
// payload>}.
// Build one with the NewXxxTask constructors or ParseTask; RunTask (or
// cmd/libra-serve's /v2 API, or the client package) answers it.
type Task = task.Task

// TaskKind selects the operation a Task requests.
type TaskKind = task.Kind

// The seven task kinds.
const (
	TaskOptimize = task.KindOptimize
	TaskEvaluate = task.KindEvaluate
	TaskSweep    = task.KindSweep
	TaskFrontier = task.KindFrontier
	TaskCoDesign = task.KindCoDesign
	TaskValidate = task.KindValidate
	TaskCluster  = task.KindCluster
)

// TaskKinds returns every valid kind in canonical order.
func TaskKinds() []TaskKind { return task.Kinds() }

// SweepTaskResult wraps a sweep task's points exactly as /v1/sweep and
// /v2/tasks serialize them.
type SweepTaskResult = task.SweepResult

// Task constructors; ParseTask builds any kind from its JSON envelope.
func NewOptimizeTask(spec *ProblemSpec) *Task { return task.NewOptimize(spec) }
func NewFrontierTask(spec *ProblemSpec, req FrontierRequest) *Task {
	return task.NewFrontier(spec, req)
}
func NewCoDesignTask(spec *CoDesignSpec) *Task { return task.NewCoDesign(spec) }
func NewValidateTask(spec *ValidateSpec) *Task { return task.NewValidate(spec) }
func NewClusterTask(spec *ClusterSpec) *Task   { return task.NewCluster(spec) }

// ParseTask strictly decodes a task envelope (unknown fields rejected at
// every level), exactly as POST /v2/tasks does.
func ParseTask(data []byte) (*Task, error) { return task.Parse(data) }

// RunTask answers the task through the engine — the single dispatch the
// HTTP endpoints, the async job manager, the CLI, and remote clients all
// funnel through. See task.Run for the per-kind result payload types.
func RunTask(ctx context.Context, e *Engine, t *Task) (any, error) { return task.Run(ctx, e, t) }

// Progress is one observation of a batch fan-out (sweep, frontier,
// codesign, validate): points completed out of total, cache hits as they
// land.
type Progress = core.Progress

// ProgressFunc observes batch progress; it must be safe for concurrent
// use.
type ProgressFunc = core.ProgressFunc

// WithProgress returns a context whose batch fan-outs report through fn —
// the hook the async job subsystem streams over /v2/jobs/{id}/events.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return core.WithProgress(ctx, fn)
}

// JobManager runs tasks asynchronously over an Engine: submit → id,
// pending/running/done/failed/cancelled lifecycle, per-job cancel, TTL +
// capacity eviction, paginated listing, and an ordered event log watchers
// stream. cmd/libra-serve exposes it as the /v2/jobs API.
type JobManager = jobs.Manager

// JobConfig tunes a JobManager (engine, retained-job capacity, terminal
// TTL).
type JobConfig = jobs.Config

// Job is a point-in-time job snapshot.
type Job = jobs.Job

// JobStatus is a job's lifecycle state.
type JobStatus = jobs.Status

// The job lifecycle states.
const (
	JobPending   = jobs.StatusPending
	JobRunning   = jobs.StatusRunning
	JobDone      = jobs.StatusDone
	JobFailed    = jobs.StatusFailed
	JobCancelled = jobs.StatusCancelled
)

// JobEvent is one entry of a job's ordered event log (status transitions
// and progress observations) — what the SSE endpoint streams.
type JobEvent = jobs.Event

// Job listing types.
type (
	JobListRequest = jobs.ListRequest
	JobListResult  = jobs.ListResult
)

// JobStats reports the job manager's retention state: store depth
// against capacity, retained jobs by status, and lifetime
// submission/eviction totals — what GET /v1/stats serves alongside
// EngineStats.
type JobStats = jobs.Stats

// NewJobManager builds a JobManager; Close cancels every live job.
func NewJobManager(cfg JobConfig) *JobManager { return jobs.NewManager(cfg) }

// ---- Observability ----

// TraceSpan is one timed unit of work inside a trace, as recorded on a
// job's event log (JobEvent.Span).
type TraceSpan = telemetry.Span

// NewTraceID mints a random 16-hex-character trace ID.
func NewTraceID() string { return telemetry.NewTraceID() }

// WithTraceID attaches a trace/request ID to the context. The client SDK
// forwards it as X-Request-Id; JobManager.Submit stamps it onto the job
// so its event-log spans carry it.
func WithTraceID(ctx context.Context, id string) context.Context {
	return telemetry.WithTraceID(ctx, id)
}

// NewLogger builds a structured slog logger: level is
// debug|info|warn|error, format is text|json — the same construction
// libra-serve's -log-level/-log-format flags use.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	return telemetry.NewLogger(w, level, format)
}

// ---- Cost–performance frontiers ----

// FrontierRequest describes a frontier sweep: a budget axis (explicit list
// or min/max/steps grid) optionally crossed with per-dimension caps.
type FrontierRequest = frontier.Request

// FrontierPoint is one evaluated cell of a frontier sweep.
type FrontierPoint = frontier.Point

// FrontierResult is a computed frontier: all points, the Pareto-optimal
// subset by ascending cost, and the EqualBW baseline curve.
type FrontierResult = frontier.Result

// FrontierSolver solves one derived spec of a frontier sweep; *Engine
// satisfies it.
type FrontierSolver = frontier.Solver

// Frontier sweeps budgets (and optional caps) against the base spec
// through the solver — typically an Engine, whose fingerprint cache
// deduplicates repeated points — and returns the cost–performance Pareto
// frontier with the EqualBW baseline priced by one shared Evaluator.
func Frontier(ctx context.Context, s FrontierSolver, base *ProblemSpec, req FrontierRequest) (*FrontierResult, error) {
	return frontier.Compute(ctx, s, base, req)
}

// ---- Parallelization × network co-design ----

// CoDesignSpec describes a joint parallelization-strategy × network-BW
// co-design study (§VI-E): a base ProblemSpec whose single transformer
// workload is re-instantiated under every memory-feasible HP-(TP, PP, DP)
// factorization of the NPU count. Serializable and canonically
// fingerprinted like ProblemSpec.
type CoDesignSpec = codesign.Spec

// CoDesignReport is a computed co-design study: the reference baseline,
// every candidate ranked by co-designed iteration time, the skipped
// (infeasible) strategies, and — in budget-axis mode — the co-design
// frontier.
type CoDesignReport = codesign.Report

// CoDesignBaseline is the reference strategy priced on EqualBW.
type CoDesignBaseline = codesign.Baseline

// CoDesignCandidate is one evaluated strategy of a co-design study.
type CoDesignCandidate = codesign.Candidate

// CoDesignSkipped is a strategy rejected before solving, with the reason.
type CoDesignSkipped = codesign.Skipped

// CoDesignFrontierPoint is the best strategy at one budget of the
// co-design frontier.
type CoDesignFrontierPoint = codesign.FrontierPoint

// CoDesignSolver answers the per-candidate specs of a co-design study;
// *Engine satisfies it.
type CoDesignSolver = codesign.Solver

// CoDesign runs a joint parallelization × network study through the
// solver — typically an Engine, whose fingerprint cache deduplicates
// repeated candidates: enumerate memory-feasible strategies, co-optimize
// each candidate's bandwidth concurrently, and rank the joint optima.
// cmd/libra-serve exposes it as POST /v1/codesign.
func CoDesign(ctx context.Context, s CoDesignSolver, spec *CoDesignSpec) (*CoDesignReport, error) {
	return codesign.Compute(ctx, s, spec)
}

// ---- Analytical-vs-simulator conformance validation ----

// ValidateSpec describes one conformance run: the scenario-matrix axes
// (workload presets × topology presets × training loops, plus raw
// collective patterns per simulator path), simulation parameters, and the
// divergence tolerance. The zero spec is the default matrix. Serializable
// and canonically fingerprinted like ProblemSpec.
type ValidateSpec = validate.Spec

// ValidationReport is a computed conformance matrix: per-scenario and
// aggregate divergence between the analytical time model and the
// event-driven simulators, with tolerance verdicts and skip reasons.
type ValidationReport = validate.Report

// ValidationScenario is one evaluated (or skipped) matrix cell.
type ValidationScenario = validate.Scenario

// ValidationBaseline is the stable, diffable projection of a report —
// the form VALIDATION_baseline.json commits and CI regenerates.
type ValidationBaseline = validate.BaselineReport

// ValidateRunner executes cached validation scenarios; *Engine satisfies
// it through its generic Do API.
type ValidateRunner = validate.Runner

// DefaultValidationTolerance is the committed divergence gate of the
// default matrix.
const DefaultValidationTolerance = validate.DefaultTolerance

// Validate cross-checks the analytical estimator against the event-driven
// simulators over the spec's scenario matrix (nil = the default matrix),
// executing scenarios concurrently through the runner — typically an
// Engine, whose cache makes repeated validation nearly free. The paper's
// §V ASTRA-sim comparison as a regression-gated call; cmd/libra-serve
// exposes it as POST /v1/validate, cmd/libra as -validate.
func Validate(ctx context.Context, r ValidateRunner, spec *ValidateSpec) (*ValidationReport, error) {
	return validate.Compute(ctx, r, spec)
}

// ---- Multi-job cluster bandwidth allocation ----

// ClusterSpec describes a multi-job shared-fabric study (§VI-C's group
// optimization generalized): several independent training jobs sharing
// one fabric design, allocated under one or more policies. The zero spec
// is the paper's Fig. 17a LLM mix on 4D-4K @ 1,000 GB/s. Serializable
// and canonically fingerprinted like ProblemSpec.
type ClusterSpec = cluster.Spec

// ClusterJobSpec declares one weighted job of a cluster study (preset
// name or inline transformer shape).
type ClusterJobSpec = cluster.JobSpec

// ClusterReport is a computed cluster study: per-job own-optimal
// baselines, every shared design priced for every job with fairness
// metrics, the best discrete bandwidth partition, the policy summary,
// and — in budget-axis mode — the group frontier.
type ClusterReport = cluster.Report

// ClusterJob is one job of a cluster report: its own-optimal design and
// the EqualBW baseline time.
type ClusterJob = cluster.Job

// ClusterDesign is one shared fabric design priced for every job.
type ClusterDesign = cluster.Design

// ClusterPartition is the best discrete split of the budget into
// per-job dedicated slices.
type ClusterPartition = cluster.Partition

// ClusterMetrics is the per-design fairness bundle (speedups, slowdowns,
// Jain index).
type ClusterMetrics = cluster.Metrics

// ClusterPolicySummary is one row of the policy comparison.
type ClusterPolicySummary = cluster.PolicySummary

// ClusterSolver solves the derived per-job specs of a cluster study;
// *Engine satisfies it.
type ClusterSolver = cluster.Solver

// Cluster allocation policies.
const (
	ClusterPolicyGroupOpt  = cluster.PolicyGroupOpt
	ClusterPolicyPartition = cluster.PolicyPartition
	ClusterPolicyPerJobOpt = cluster.PolicyPerJobOpt
)

// Cluster runs a multi-job shared-fabric study through the solver —
// typically an Engine, whose fingerprint cache deduplicates repeated
// designs: solve each job's own optimum, the group optimum, and the
// partition grid concurrently, then price every design for every job.
// cmd/libra-serve exposes it as POST /v1/cluster, cmd/libra as -cluster.
func Cluster(ctx context.Context, s ClusterSolver, spec *ClusterSpec) (*ClusterReport, error) {
	return cluster.Compute(ctx, s, spec)
}

// ParseClusterSpec decodes a ClusterSpec from JSON, rejecting unknown
// fields.
func ParseClusterSpec(data []byte) (*ClusterSpec, error) { return cluster.ParseSpec(data) }

// ---- Collectives and simulation ----

// CollectiveOp is a collective communication pattern.
type CollectiveOp = collective.Op

// Collective patterns (Fig. 6).
const (
	ReduceScatter = collective.ReduceScatter
	AllGather     = collective.AllGather
	AllReduce     = collective.AllReduce
	AllToAll      = collective.AllToAll
)

// CollectiveTime is the closed-form multi-rail collective latency over the
// full network: max over dimensions of traffic/bandwidth (§IV-C).
func CollectiveTime(op CollectiveOp, bytes float64, net *Network, bw BWConfig) float64 {
	return collective.Time(op, bytes, collective.FullMapping(net), bw)
}

// ---- Runtime co-design substrates ----

// TacosSchedule is a synthesized collective schedule.
type TacosSchedule = tacos.Schedule

// TacosAllGather synthesizes a topology-aware All-Gather on a
// point-to-point network (Ring/FullyConnected dimensions).
func TacosAllGather(net *Network, bw BWConfig, bytes float64, chunksPerNPU int) (TacosSchedule, error) {
	return tacos.SynthesizeAllGather(net, bw, bytes, chunksPerNPU)
}

// TacosAllReduceTime prices a synthesized All-Reduce (two synthesized
// All-Gather phases, falling back to multi-rail when that is faster).
func TacosAllReduceTime(net *Network, bw BWConfig, bytes float64, chunksPerNPU int) (float64, TacosSchedule, error) {
	return tacos.AllReduceTime(net, bw, bytes, chunksPerNPU)
}
