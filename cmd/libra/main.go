// Command libra optimizes the per-dimension bandwidth of a
// multi-dimensional training network for a set of target workloads.
//
// The problem can be described with flags or as a JSON ProblemSpec; both
// paths build the identical spec, so results match byte-for-byte:
//
//	libra -topology "RI(4)_FC(8)_RI(4)_SW(32)" -workloads GPT-3 -budget 500
//	libra -preset 4D-4K -workloads MSFT-1T,GPT-3,Turing-NLG -budget 1000 -objective ppc
//	libra -preset 3D-4K -workloads MSFT-1T -budget 300 -cap 3=50 -loop overlap
//	libra -spec examples/spec.json
//	libra -spec examples/spec.json -json
//
// Every mode builds one task envelope (internal/task) and answers it
// through the same task.Run dispatch the server uses — locally through an
// in-process Engine by default, or remotely when -remote points at a
// libra-serve /v2 endpoint (submitted as an async job, progress streamed
// to stderr, Ctrl-C cancels the job server-side):
//
//	libra -remote http://localhost:8080 -preset 4D-4K -workloads MSFT-1T -frontier 250:1000:4
//
// The -frontier mode sweeps the bandwidth budget instead of solving one
// point, printing the cost–performance Pareto frontier (explicit list or
// min:max:steps grid):
//
//	libra -preset 4D-4K -workloads MSFT-1T -frontier 250:1000:4
//	libra -spec examples/spec.json -frontier 300,500,1000 -json
//
// The -codesign mode jointly optimizes the parallelization strategy and
// the network (§VI-E): the single transformer workload is re-instantiated
// under every candidate TP degree ("auto" enumerates all divisors of the
// NPU count), each candidate's bandwidth co-optimized, and the joint
// optima ranked. -mem filters memory-infeasible strategies; combining
// with -frontier sweeps the budget axis into a co-design frontier:
//
//	libra -preset 4D-4K -workloads MSFT-1T -budget 1000 -codesign 8,16,32,64,128,256
//	libra -preset 4D-4K -workloads MSFT-1T -budget 1000 -codesign auto -mem 80
//	libra -preset 4D-4K -workloads MSFT-1T -codesign auto -frontier 250:1000:4
//
// The -cluster mode allocates one shared fabric across several
// concurrent training jobs (the Fig. 17 group study generalized): the
// flag lists the tenant jobs as Table II presets ("default" selects the
// Fig. 17a LLM mix), -weights sets their priorities, -policies narrows
// the allocation policies compared (group-opt, partition, per-job-opt),
// and -frontier adds a budget axis swept into a cluster frontier. With
// -spec the file is read as a cluster spec instead of a ProblemSpec:
//
//	libra -cluster default
//	libra -cluster Turing-NLG,GPT-3,MSFT-1T -preset 4D-4K -budget 1000
//	libra -cluster GPT-3,DLRM -weights 2,1 -policies group-opt,partition -partition-steps 16
//	libra -cluster default -frontier 250:1000:4 -json
//
// The -validate mode runs the analytical-vs-simulator conformance matrix
// (workloads × topologies × training loops plus raw collectives per
// simulator path) and exits non-zero when any evaluated scenario — or the
// aggregate mean — diverges beyond the tolerance. -baseline/-check
// write/verify the committed golden divergence report:
//
//	libra -validate
//	libra -validate -tolerance 0.05 -json
//	libra -validate -baseline VALIDATION_baseline.json
//	libra -validate -check VALIDATION_baseline.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"libra"
	"libra/client"
	"libra/internal/cliutil"
	"libra/internal/task"
)

func main() {
	cliutil.Fatal("libra", run(os.Args[1:], os.Stdout))
}

// run executes one invocation, writing its report to w. It is main minus
// the process plumbing, so the tests drive the exact code the binary
// ships.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("libra", flag.ContinueOnError)
	// Parse failures surface exactly once (via the returned error);
	// -h/-help prints usage to w and succeeds.
	fs.SetOutput(io.Discard)
	var (
		specPath  = fs.String("spec", "", "JSON ProblemSpec file; overrides the topology/workload flags")
		topo      = fs.String("topology", "", "network in block notation, e.g. RI(4)_FC(8)_RI(4)_SW(32)")
		preset    = fs.String("preset", "", "named Table III topology (4D-4K, 3D-4K, 3D-512, 3D-1K, 4D-2K, 3D-Torus)")
		workloads = fs.String("workloads", "GPT-3", "comma-separated Table II workloads (Turing-NLG, GPT-3, MSFT-1T, DLRM, ResNet-50)")
		weights   = fs.String("weights", "", "comma-separated workload weights (default: equal)")
		budget    = fs.Float64("budget", 500, "per-NPU bandwidth budget in GB/s")
		objective = fs.String("objective", "perf", "optimization objective: perf or ppc")
		loop      = fs.String("loop", "nooverlap", "training loop: nooverlap or overlap")
		caps      = fs.String("cap", "", "per-dimension caps dim=GBps, comma-separated (1-based dims), e.g. 4=50")
		floors    = fs.String("floor", "", "per-dimension floors dim=GBps, comma-separated (1-based dims)")
		timeout   = fs.Duration("timeout", 0, "abort the solve after this duration (0 = no limit)")
		asJSON    = fs.Bool("json", false, "emit the result as JSON instead of the text report")
		front     = fs.String("frontier", "", "sweep the budget and print the Pareto frontier: min:max:steps or a comma-separated budget list")
		codesign  = fs.String("codesign", "", "co-design the parallelization strategy with the network: a comma-separated TP list or 'auto' (all divisors of the NPU count)")
		memGB     = fs.Float64("mem", 0, "per-NPU memory capacity in GB for -codesign feasibility filtering (0 = unlimited, the paper's §VI-E CXL relaxation)")
		clusterJ  = fs.String("cluster", "", "allocate the shared fabric across concurrent jobs: a comma-separated Table II preset list, or 'default' (the Fig. 17a LLM mix)")
		policies  = fs.String("policies", "", "with -cluster: comma-separated allocation policies (group-opt, partition, per-job-opt); default all")
		partSteps = fs.Int("partition-steps", 0, "with -cluster: budget-split granularity of the partition policy (default 8)")
		validate  = fs.Bool("validate", false, "run the analytical-vs-simulator conformance matrix instead of solving")
		tolerance = fs.Float64("tolerance", 0, "per-scenario |relative error| gate for -validate (0 = the committed default)")
		baseline  = fs.String("baseline", "", "with -validate: write the stable baseline report (VALIDATION_baseline.json form) to this file")
		check     = fs.String("check", "", "with -validate: regenerate the baseline report and fail unless it is byte-identical to this committed file")
		remote    = fs.String("remote", "", "answer through a libra-serve /v2 endpoint (URL) instead of solving in-process")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(w)
			fs.Usage()
			return nil
		}
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	r := newRunner(*remote, *asJSON)
	defer r.close()

	if *validate {
		return runValidate(ctx, w, r, *tolerance, *baseline, *check, *asJSON)
	}

	if *clusterJ != "" {
		// Mirror -codesign's budget semantics: an unset -budget with a
		// budget axis leaves the study ranking at the axis maximum.
		budgetSet := *specPath != ""
		fs.Visit(func(f *flag.Flag) { budgetSet = budgetSet || f.Name == "budget" })
		b := *budget
		if !budgetSet {
			b = 0
		}
		return runCluster(ctx, w, r, clusterArgs{
			specPath: *specPath, topo: *topo, preset: *preset,
			jobs: *clusterJ, weights: *weights, budget: b,
			objective: *objective, loop: *loop,
			policies: *policies, steps: *partSteps, front: *front,
		}, *asJSON)
	}

	spec, err := buildSpec(*specPath, *topo, *preset, *workloads, *weights, *budget, *objective, *loop, *caps, *floors)
	if err != nil {
		return err
	}

	if *codesign != "" {
		// The -budget flag default (500) must not pin the study when the
		// user gave only a budget axis: with the flag unset, frontier-mode
		// ranking defaults to the axis maximum, exactly like a JSON spec
		// posted to /v1/codesign without budget_gbps.
		budgetSet := *specPath != ""
		fs.Visit(func(f *flag.Flag) { budgetSet = budgetSet || f.Name == "budget" })
		if !budgetSet && *front != "" {
			spec.BudgetGBps = 0
		}
		return runCoDesign(ctx, w, r, spec, *codesign, *memGB, *front, *asJSON)
	}

	// Frontier mode builds per-point problems itself (at the axis maximum
	// when the spec carries no budget), so like -codesign it must branch
	// before the single-point Build validates BudgetGBps.
	if *front != "" {
		return runFrontier(ctx, w, r, spec, *front, *asJSON)
	}

	return runOptimize(ctx, w, r, spec, *asJSON)
}

// ---- The task runner: one dispatch, two transports ----

// runner answers task envelopes: locally through an in-process Engine, or
// remotely through the client SDK against a libra-serve /v2 endpoint.
// Either way the result payloads are the types task.Run documents, so
// every rendering path below is transport-agnostic.
type runner interface {
	run(ctx context.Context, t *libra.Task) (any, error)
	close()
}

func newRunner(remoteURL string, quiet bool) runner {
	if remoteURL != "" {
		return &remoteRunner{c: client.New(remoteURL), quiet: quiet}
	}
	return &localRunner{engine: libra.NewEngine(libra.EngineConfig{})}
}

type localRunner struct{ engine *libra.Engine }

func (r *localRunner) run(ctx context.Context, t *libra.Task) (any, error) {
	return libra.RunTask(ctx, r.engine, t)
}
func (r *localRunner) close() { r.engine.Close() }

type remoteRunner struct {
	c *client.Client
	// quiet suppresses the stderr progress stream (-json mode keeps
	// stdout machine-readable; stderr chatter is still unwanted noise in
	// pipelines).
	quiet bool
}

func (r *remoteRunner) close() {}

// run submits the task as an async job, streams its progress to stderr,
// and decodes the result into the same payload type a local run returns.
// An interrupted run cancels the job server-side so no orphaned solve
// keeps burning the service's workers.
func (r *remoteRunner) run(ctx context.Context, t *libra.Task) (any, error) {
	// Mint a trace ID per submission: the client sends it as X-Request-Id,
	// the server stamps it onto the job, and its spans in the event log
	// carry it — one greppable handle from CLI stderr to server logs.
	trace := libra.NewTraceID()
	ctx = libra.WithTraceID(ctx, trace)
	job, err := r.c.Submit(ctx, t)
	if err != nil {
		return nil, err
	}
	if !r.quiet {
		fmt.Fprintf(os.Stderr, "libra: remote job %s submitted (trace %s)\n", job.ID, trace)
	}
	final, err := r.c.Watch(ctx, job.ID, r.onEvent)
	if err != nil {
		if ctx.Err() != nil {
			// Best-effort server-side cancel, detached from the dead ctx.
			cancelCtx, cancel := context.WithTimeout(libra.WithTraceID(context.Background(), trace), 5*time.Second)
			defer cancel()
			r.c.Cancel(cancelCtx, job.ID) //nolint:errcheck // the interrupt wins either way
		}
		return nil, err
	}
	switch final.Status {
	case libra.JobDone:
	case libra.JobCancelled:
		return nil, fmt.Errorf("remote job %s was cancelled", job.ID)
	default:
		return nil, fmt.Errorf("remote job %s failed: %s", job.ID, final.Error)
	}
	return task.DecodeResult(t.Kind, final.Result)
}

func (r *remoteRunner) onEvent(ev client.Event) {
	if r.quiet {
		return
	}
	switch {
	case ev.Type == "status":
		fmt.Fprintf(os.Stderr, "libra: remote job %s\n", ev.Status)
	case ev.Progress != nil:
		fmt.Fprintf(os.Stderr, "libra: %s %d/%d (%d cached)\r",
			ev.Progress.Stage, ev.Progress.Done, ev.Progress.Total, ev.Progress.CacheHits)
		if ev.Progress.Done == ev.Progress.Total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// buildSpec funnels both input paths into one declarative ProblemSpec.
func buildSpec(specPath, topo, preset, workloads, weights string, budget float64, objective, loop, caps, floors string) (*libra.ProblemSpec, error) {
	if specPath != "" {
		return cliutil.LoadSpec(specPath)
	}
	topoName := topo
	if topoName == "" {
		topoName = preset
	}
	if topoName == "" {
		topoName = "4D-4K"
	} else if topo != "" && preset != "" {
		return nil, fmt.Errorf("use -topology or -preset, not both")
	}

	names := cliutil.SplitList(workloads)
	spec := &libra.ProblemSpec{
		Topology:   topoName,
		BudgetGBps: budget,
		Objective:  objective,
		Loop:       loop,
	}
	var ws []float64
	if weights != "" {
		var err error
		if ws, err = cliutil.ParseFloats(weights); err != nil {
			return nil, err
		}
		if len(ws) != len(names) {
			return nil, fmt.Errorf("%d weights for %d workloads", len(ws), len(names))
		}
	}
	for i, n := range names {
		w := libra.WorkloadSpec{Preset: n}
		if ws != nil {
			w.Weight = ws[i]
		}
		spec.Workloads = append(spec.Workloads, w)
	}
	capPairs, err := cliutil.ParseDimValuePairs(caps)
	if err != nil {
		return nil, err
	}
	floorPairs, err := cliutil.ParseDimValuePairs(floors)
	if err != nil {
		return nil, err
	}
	spec.Constraints = cliutil.ConstraintsFromPairs(capPairs, floorPairs)
	return spec, nil
}

// runOptimize solves the single design point through the task dispatch
// and renders it against the locally-priced EqualBW baseline.
func runOptimize(ctx context.Context, w io.Writer, run runner, spec *libra.ProblemSpec, asJSON bool) error {
	res, err := run.run(ctx, libra.NewOptimizeTask(spec))
	if err != nil {
		return err
	}
	er, ok := res.(libra.EngineResult)
	if !ok {
		return fmt.Errorf("optimize returned %T", res)
	}

	// The EqualBW reference is priced locally either way: it is a cheap
	// closed-form evaluation, and the spec is always at hand.
	p, err := spec.Build()
	if err != nil {
		return err
	}
	eq, err := p.EqualBW()
	if err != nil {
		return err
	}

	if asJSON {
		out := struct {
			Result      libra.Result `json:"result"`
			EqualBW     libra.Result `json:"equal_bw"`
			Fingerprint string       `json:"fingerprint"`
			Cached      bool         `json:"cached,omitempty"`
			ElapsedMS   float64      `json:"elapsed_ms"`
		}{er.Result, eq, er.Fingerprint, er.Cached, er.ElapsedMS}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	r := er.Result
	var names []string
	for _, t := range p.Targets {
		names = append(names, t.Workload.Name)
	}
	fmt.Fprintf(w, "network:    %s (%d NPUs, %dD)\n", p.Net.Name(), p.Net.NPUs(), p.Net.NumDims())
	fmt.Fprintf(w, "objective:  %s @ %.0f GB/s per NPU\n", p.Objective, p.BWBudget)
	fmt.Fprintf(w, "workloads:  %s\n\n", strings.Join(names, ", "))
	fmt.Fprintf(w, "%-16s %-34s %12s %14s\n", "config", "BW per dim (GB/s)", "cost ($M)", "iter time (s)")
	fmt.Fprintf(w, "%-16s %-34s %12.2f %14.6f\n", "EqualBW", eq.BW.String(), eq.Cost/1e6, eq.WeightedTime)
	fmt.Fprintf(w, "%-16s %-34s %12.2f %14.6f\n", "LIBRA", r.BW.String(), r.Cost/1e6, r.WeightedTime)
	fmt.Fprintf(w, "\nspeedup over EqualBW:        %.2fx\n", eq.WeightedTime/r.WeightedTime)
	fmt.Fprintf(w, "perf-per-cost over EqualBW:  %.2fx\n", r.PerfPerCost()/eq.PerfPerCost())
	for i, t := range p.Targets {
		fmt.Fprintf(w, "  %-12s  %.6fs -> %.6fs (%.2fx)\n", t.Workload.Name, eq.Times[i], r.Times[i], eq.Times[i]/r.Times[i])
	}
	return nil
}

// runFrontier sweeps the budget axis and prints the Pareto frontier.
// Locally an in-process Engine backs the sweep (duplicate budgets are
// answered once); remotely the server's engine does.
func runFrontier(ctx context.Context, w io.Writer, run runner, spec *libra.ProblemSpec, axis string, asJSON bool) error {
	req, err := parseFrontierAxis(axis)
	if err != nil {
		return err
	}
	got, err := run.run(ctx, libra.NewFrontierTask(spec, req))
	if err != nil {
		return err
	}
	res, ok := got.(*libra.FrontierResult)
	if !ok {
		return fmt.Errorf("frontier returned %T", got)
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Fprintf(w, "%-14s %-34s %12s %14s %14s %7s\n",
		"budget (GB/s)", "LIBRA BW per dim (GB/s)", "cost ($M)", "iter time (s)", "EqualBW (s)", "pareto")
	eqTimes := map[float64]float64{}
	for _, p := range res.EqualBW {
		if p.Error == "" {
			eqTimes[p.BudgetGBps] = p.Result.WeightedTime
		}
	}
	for _, p := range res.Points {
		if p.Error != "" {
			fmt.Fprintf(w, "%s error: %v\n", budgetCell(p.BudgetGBps), p.Error)
			continue
		}
		mark := ""
		if p.Pareto {
			mark = "*"
		}
		eq := "-"
		if t, ok := eqTimes[p.BudgetGBps]; ok {
			eq = fmt.Sprintf("%14.6f", t)
		}
		fmt.Fprintf(w, "%s %-34s %12.2f %14.6f %14s %7s\n",
			budgetCell(p.BudgetGBps), p.Result.BW.String(), p.Result.Cost/1e6, p.Result.WeightedTime, eq, mark)
	}
	fmt.Fprintf(w, "\nPareto frontier: %d of %d points (%d solves, %d cache hits, %.0f ms)\n",
		len(res.Frontier), len(res.Points), res.Solves, res.CacheHits, res.ElapsedMS)
	return nil
}

// runCoDesign runs the joint parallelization × network study. tps is
// "auto" or a comma-separated TP list; front optionally adds the budget
// axis (reusing the -frontier syntax) for the co-design frontier.
func runCoDesign(ctx context.Context, w io.Writer, run runner, base *libra.ProblemSpec, tps string, memGB float64, front string, asJSON bool) error {
	cspec := &libra.CoDesignSpec{Base: *base, MemoryGB: memGB}
	if tps != "auto" {
		for _, s := range cliutil.SplitList(tps) {
			tp, err := strconv.Atoi(s)
			if err != nil {
				return fmt.Errorf("codesign TP list: malformed degree %q", s)
			}
			cspec.TPs = append(cspec.TPs, tp)
		}
	}
	if front != "" {
		req, err := parseFrontierAxis(front)
		if err != nil {
			return err
		}
		if cspec.Budgets, err = req.BudgetAxis(); err != nil {
			return err
		}
	}
	got, err := run.run(ctx, libra.NewCoDesignTask(cspec))
	if err != nil {
		return err
	}
	rep, ok := got.(*libra.CoDesignReport)
	if !ok {
		return fmt.Errorf("codesign returned %T", got)
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(w, "co-design on %s (%d NPUs) @ %.0f GB/s per NPU, global batch %d\n",
		rep.Topology, rep.NPUs, rep.BudgetGBps, rep.GlobalBatch)
	fmt.Fprintf(w, "baseline: %s on EqualBW — %.4fs per iteration\n\n",
		rep.Baseline.Strategy, rep.Baseline.EqualBW.WeightedTime)
	fmt.Fprintf(w, "%-16s %8s %14s %18s %-30s\n", "strategy", "mem(GB)", "EqualBW spdup", "co-design spdup", "co-designed BW")
	for _, c := range rep.Candidates {
		if c.Error != "" {
			fmt.Fprintf(w, "%-16s error: %v\n", c.Strategy, c.Error)
			continue
		}
		eq := "-"
		if c.EqualBW != nil {
			eq = fmt.Sprintf("%.2fx", c.EqualBWSpeedupVsBaseline)
		}
		fmt.Fprintf(w, "%-16s %8.1f %14s %17.2fx %-30s\n",
			c.Strategy, c.MemoryGB, eq, c.SpeedupVsBaseline, c.Optimized.BW.String())
	}
	for _, s := range rep.Skipped {
		fmt.Fprintf(w, "%-16s skipped: %s\n", skipLabel(s), s.Reason)
	}
	if best := rep.Best(); best != nil {
		fmt.Fprintf(w, "\njoint optimum: %s with its co-designed network — %.2fx over the baseline\n",
			best.Strategy, best.SpeedupVsBaseline)
	}
	if len(rep.Frontier) > 0 {
		fmt.Fprintf(w, "\nco-design frontier (best strategy per budget):\n")
		fmt.Fprintf(w, "%-14s %-16s %-30s %12s %14s %7s\n",
			"budget (GB/s)", "strategy", "BW per dim (GB/s)", "cost ($M)", "iter time (s)", "pareto")
		for _, p := range rep.Frontier {
			if p.Error != "" {
				fmt.Fprintf(w, "%s error: %v\n", budgetCell(p.BudgetGBps), p.Error)
				continue
			}
			mark := ""
			if p.Pareto {
				mark = "*"
			}
			fmt.Fprintf(w, "%s %-16s %-30s %12.2f %14.6f %7s\n",
				budgetCell(p.BudgetGBps), p.Strategy, p.Result.BW.String(), p.Result.Cost/1e6, p.Result.WeightedTime, mark)
		}
	}
	fmt.Fprintf(w, "\n%d candidates, %d skipped (%d solves, %d cache hits, %.0f ms)\n",
		len(rep.Candidates), len(rep.Skipped), rep.Solves, rep.CacheHits, rep.ElapsedMS)
	return nil
}

// clusterArgs bundles the flag values the -cluster mode consumes.
type clusterArgs struct {
	specPath, topo, preset string
	jobs, weights          string
	budget                 float64
	objective, loop        string
	policies               string
	steps                  int
	front                  string
}

// runCluster runs the multi-job shared-fabric study. The job list is
// "default" (the Fig. 17a LLM mix) or comma-separated Table II presets;
// with -spec the file is read as a full cluster spec instead and the
// workload flags are ignored.
func runCluster(ctx context.Context, w io.Writer, run runner, a clusterArgs, asJSON bool) error {
	var cspec *libra.ClusterSpec
	if a.specPath != "" {
		data, err := os.ReadFile(a.specPath)
		if err != nil {
			return err
		}
		if cspec, err = libra.ParseClusterSpec(data); err != nil {
			return err
		}
	} else {
		if a.topo != "" && a.preset != "" {
			return fmt.Errorf("use -topology or -preset, not both")
		}
		topoName := a.topo
		if topoName == "" {
			topoName = a.preset
		}
		cspec = &libra.ClusterSpec{
			Topology:       topoName,
			BudgetGBps:     a.budget,
			Objective:      a.objective,
			Loop:           a.loop,
			PartitionSteps: a.steps,
		}
		if a.jobs != "default" {
			names := cliutil.SplitList(a.jobs)
			var ws []float64
			if a.weights != "" {
				var err error
				if ws, err = cliutil.ParseFloats(a.weights); err != nil {
					return err
				}
				if len(ws) != len(names) {
					return fmt.Errorf("%d weights for %d jobs", len(ws), len(names))
				}
			}
			for i, n := range names {
				j := libra.ClusterJobSpec{Preset: n}
				if ws != nil {
					w := ws[i]
					j.Weight = &w
				}
				cspec.Jobs = append(cspec.Jobs, j)
			}
		} else if a.weights != "" {
			return fmt.Errorf("-weights needs an explicit -cluster job list")
		}
	}
	if a.policies != "" {
		cspec.Policies = cliutil.SplitList(a.policies)
	}
	if a.front != "" {
		req, err := parseFrontierAxis(a.front)
		if err != nil {
			return err
		}
		if cspec.Budgets, err = req.BudgetAxis(); err != nil {
			return err
		}
	}

	got, err := run.run(ctx, libra.NewClusterTask(cspec))
	if err != nil {
		return err
	}
	rep, ok := got.(*libra.ClusterReport)
	if !ok {
		return fmt.Errorf("cluster returned %T", got)
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	printCluster(w, rep)
	return nil
}

// printCluster renders the study: the tenant table, the Fig. 17-style
// cross-evaluation matrix (speedup over EqualBW x slowdown over own-opt
// per job and shared design), the best partition, and the policy summary.
func printCluster(w io.Writer, rep *libra.ClusterReport) {
	fmt.Fprintf(w, "cluster study on %s (%d NPUs) @ %.0f GB/s per NPU — policies: %s\n\n",
		rep.Topology, rep.NPUs, rep.BudgetGBps, strings.Join(rep.Policies, ", "))

	fmt.Fprintf(w, "%-14s %7s %-34s %14s %14s\n", "job", "weight", "own-opt BW per dim (GB/s)", "own time (s)", "EqualBW (s)")
	for _, j := range rep.Jobs {
		if j.Error != "" {
			fmt.Fprintf(w, "%-14s %7.2g error: %s\n", j.Name, j.Weight, j.Error)
			continue
		}
		own := "-"
		if j.OwnOpt != nil {
			own = j.OwnOpt.BW.String()
		}
		fmt.Fprintf(w, "%-14s %7.2g %-34s %14.6f %14.6f\n", j.Name, j.Weight, own, j.OwnTimeS, j.EqualBWTimeS)
	}

	if len(rep.Designs) > 0 {
		fmt.Fprintf(w, "\nshared designs (speedup over EqualBW / slowdown over own-opt per job):\n")
		fmt.Fprintf(w, "%-14s %-12s", "design", "policy")
		for _, j := range rep.Jobs {
			fmt.Fprintf(w, " %16s", j.Name)
		}
		fmt.Fprintln(w)
		for _, d := range rep.Designs {
			fmt.Fprintf(w, "%-14s %-12s", d.Name, d.Policy)
			if d.Error != "" {
				fmt.Fprintf(w, " error: %s\n", d.Error)
				continue
			}
			for i := range rep.Jobs {
				cell := "-"
				if d.SpeedupVsEqualBW[i] > 0 {
					cell = fmt.Sprintf("%.2fx", d.SpeedupVsEqualBW[i])
					if d.SlowdownVsOwnOpt[i] > 0 {
						cell += fmt.Sprintf("/%.2fx", d.SlowdownVsOwnOpt[i])
					}
				}
				fmt.Fprintf(w, " %16s", cell)
			}
			fmt.Fprintln(w)
		}
	}

	if p := rep.Partition; p != nil {
		if p.Error != "" {
			fmt.Fprintf(w, "\npartition (%d steps): %s\n", p.Steps, p.Error)
		} else {
			var shares []string
			for i, j := range rep.Jobs {
				shares = append(shares, fmt.Sprintf("%s=%.0f GB/s", j.Name, p.SharesGBps[i]))
			}
			fmt.Fprintf(w, "\npartition (%d steps): %s — weighted time %.6fs\n",
				p.Steps, strings.Join(shares, ", "), p.WeightedTimeS)
		}
	}

	if len(rep.Summary) > 0 {
		fmt.Fprintf(w, "\n%-14s %-14s %16s %12s %13s %6s\n",
			"policy", "allocation", "weighted t (s)", "agg speedup", "max slowdown", "Jain")
		for _, s := range rep.Summary {
			fmt.Fprintf(w, "%-14s %-14s %16.6f %11.2fx %12.2fx %6.3f\n",
				s.Policy, s.Design, s.WeightedTimeS, s.AggregateSpeedup, s.MaxSlowdown, s.JainFairness)
		}
	}

	if fr := rep.Frontier; fr != nil {
		fmt.Fprintf(w, "\ncluster frontier (group design per budget):\n")
		fmt.Fprintf(w, "%-14s %-34s %12s %14s %7s\n",
			"budget (GB/s)", "group BW per dim (GB/s)", "cost ($M)", "iter time (s)", "pareto")
		for _, p := range fr.Points {
			if p.Error != "" {
				fmt.Fprintf(w, "%s error: %v\n", budgetCell(p.BudgetGBps), p.Error)
				continue
			}
			mark := ""
			if p.Pareto {
				mark = "*"
			}
			fmt.Fprintf(w, "%s %-34s %12.2f %14.6f %7s\n",
				budgetCell(p.BudgetGBps), p.Result.BW.String(), p.Result.Cost/1e6, p.Result.WeightedTime, mark)
		}
	}

	fmt.Fprintf(w, "\n%d jobs, %d designs (%d solves, %d cache hits, %.0f ms)\n",
		len(rep.Jobs), len(rep.Designs), rep.Solves, rep.CacheHits, rep.ElapsedMS)
}

// runValidate executes the conformance matrix (the analytical estimator
// cross-checked against the event-driven simulators) and gates on the
// tolerance verdicts: a failing matrix exits non-zero so CI can call this
// directly. -baseline writes the stable report form; -check regenerates
// it and fails on any byte of drift from the committed file.
func runValidate(ctx context.Context, w io.Writer, run runner, tolerance float64, baselinePath, checkPath string, asJSON bool) error {
	got, err := run.run(ctx, libra.NewValidateTask(&libra.ValidateSpec{Tolerance: tolerance}))
	if err != nil {
		return err
	}
	rep, ok := got.(*libra.ValidationReport)
	if !ok {
		return fmt.Errorf("validate returned %T", got)
	}

	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		printValidation(w, rep)
	}

	if baselinePath != "" || checkPath != "" {
		data, err := json.MarshalIndent(rep.Baseline(), "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if baselinePath != "" {
			if err := os.WriteFile(baselinePath, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "libra: wrote %s\n", baselinePath)
		}
		if checkPath != "" {
			want, err := os.ReadFile(checkPath)
			if err != nil {
				return err
			}
			if !bytes.Equal(data, want) {
				return fmt.Errorf("validation drift: regenerated baseline differs from %s (re-run `make validate-baseline` after intentional model changes)", checkPath)
			}
			fmt.Fprintf(os.Stderr, "libra: baseline %s is up to date\n", checkPath)
		}
	}

	if !rep.Pass {
		return fmt.Errorf("conformance gate failed: mean |rel err| %.4f, max %.4f at %s (tolerance %.3f)",
			rep.MeanAbsRelErr, rep.MaxAbsRelErr, rep.WorstID, rep.Tolerance)
	}
	return nil
}

// printValidation renders the conformance matrix as a text table.
func printValidation(w io.Writer, rep *libra.ValidationReport) {
	fmt.Fprintf(w, "analytical-vs-simulator conformance (tolerance %.3f)\n\n", rep.Tolerance)
	fmt.Fprintf(w, "%-52s %14s %14s %9s %9s %s\n", "scenario", "analytical (s)", "simulated (s)", "rel err", "dim err", "verdict")
	for _, sc := range rep.Scenarios {
		switch {
		case sc.Skipped:
			fmt.Fprintf(w, "%-52s skipped: %s\n", sc.ID, sc.Reason)
		case sc.Error != "":
			fmt.Fprintf(w, "%-52s error: %s\n", sc.ID, sc.Error)
		default:
			verdict := "ok"
			if !sc.Within {
				verdict = "DIVERGED"
			}
			fmt.Fprintf(w, "%-52s %14.6f %14.6f %8.2f%% %8.2g %s\n",
				sc.ID, sc.AnalyticalS, sc.SimulatedS, 100*sc.RelErr, sc.DimBusyMaxRelErr, verdict)
		}
	}
	fmt.Fprintf(w, "\n%d evaluated, %d skipped, %d failed; mean |rel err| %.2f%%, max %.2f%% (%s)\n",
		rep.Evaluated, rep.Skipped, rep.Failed, 100*rep.MeanAbsRelErr, 100*rep.MaxAbsRelErr, rep.WorstID)
	fmt.Fprintf(w, "gate: %s (%d solves, %d cache hits, %.0f ms)\n", passLabel(rep.Pass), rep.Solves, rep.CacheHits, rep.ElapsedMS)
}

func passLabel(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}

// budgetCell renders a budget as the 14-wide first column of the
// frontier tables: whole numbers as integers, a fractional budget (a
// sub-1 GB/s axis point) with its shortest exact digits.
func budgetCell(gbps float64) string {
	if gbps == math.Trunc(gbps) {
		return fmt.Sprintf("%-14.0f", gbps)
	}
	return fmt.Sprintf("%-14s", strconv.FormatFloat(gbps, 'f', -1, 64))
}

// skipLabel renders a skipped strategy; grid cells that never resolved a
// DP degree (TP×PP not dividing the NPU count) have no full HP-(...) form.
func skipLabel(s libra.CoDesignSkipped) string {
	if s.Strategy.DP > 0 {
		return s.Strategy.String()
	}
	if s.Strategy.PPOr1() > 1 {
		return fmt.Sprintf("TP=%d, PP=%d", s.Strategy.TP, s.Strategy.PP)
	}
	return fmt.Sprintf("TP=%d", s.Strategy.TP)
}

// parseFrontierAxis reads min:max:steps or a comma-separated budget list.
func parseFrontierAxis(s string) (libra.FrontierRequest, error) {
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return libra.FrontierRequest{}, fmt.Errorf("frontier grid %q: want min:max:steps", s)
		}
		lo, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return libra.FrontierRequest{}, err
		}
		hi, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return libra.FrontierRequest{}, err
		}
		n, err := strconv.Atoi(parts[2])
		if err != nil {
			return libra.FrontierRequest{}, err
		}
		return libra.FrontierRequest{BudgetMin: lo, BudgetMax: hi, BudgetSteps: n}, nil
	}
	budgets, err := cliutil.ParseFloats(s)
	if err != nil {
		return libra.FrontierRequest{}, err
	}
	return libra.FrontierRequest{Budgets: budgets}, nil
}
