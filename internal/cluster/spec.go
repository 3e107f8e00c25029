package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"

	"libra/internal/core"
	"libra/internal/topology"
)

// Allocation policies a cluster study can request. The zero policy list
// selects all of them.
const (
	// PolicyGroupOpt solves one shared bandwidth configuration minimizing
	// the weighted aggregate iteration time of every job — the Fig. 17
	// group-optimization problem generalized to weighted tenants.
	PolicyGroupOpt = "group-opt"
	// PolicyPartition splits the per-NPU bandwidth budget across jobs,
	// each job's slice optimized for that job alone, and searches the
	// split minimizing the weighted aggregate time.
	PolicyPartition = "partition"
	// PolicyPerJobOpt cross-evaluates the single-job baselines: every
	// job's own optimal network priced for every other job (the "network
	// tuned for one tenant" columns of Fig. 17).
	PolicyPerJobOpt = "per-job-opt"
)

// Defaults of the zero Spec — the Fig. 17(a) LLM mix, mirroring
// validate's zero-spec-equals-default-matrix behavior so an empty POST
// /v1/cluster body runs a meaningful study.
const (
	// DefaultTopology is the shared fabric of the default scenario.
	DefaultTopology = "4D-4K"
	// DefaultBudgetGBps is the default per-NPU bandwidth budget.
	DefaultBudgetGBps = 1000
	// DefaultMaxJobs bounds the job list when the spec does not set its
	// own limit; the cross-evaluation matrix is quadratic in it.
	DefaultMaxJobs = 16
	// DefaultPartitionSteps is the budget-split granularity of the
	// partition policy when the spec does not set one (raised to the job
	// count when more jobs than steps share the fabric).
	DefaultPartitionSteps = 8
	// MaxPartitionSteps bounds the split granularity; each step costs one
	// optimization per job.
	MaxPartitionSteps = 64
)

// DefaultJobs returns the default job mix (Fig. 17(a): the three LLMs
// sharing the fabric at equal priority).
func DefaultJobs() []JobSpec {
	return []JobSpec{{Preset: "Turing-NLG"}, {Preset: "GPT-3"}, {Preset: "MSFT-1T"}}
}

// JobSpec is one tenant job of a cluster study: a Table II workload
// preset or an inline transformer shape, plus a scheduling weight.
type JobSpec struct {
	// Name labels the job in the report (default: the workload name).
	// Names must be unique — give explicit names to run the same
	// workload twice at different weights.
	Name string `json:"name,omitempty"`
	// Preset is a Table II workload name, instantiated on the shared
	// topology's NPU count.
	Preset string `json:"preset,omitempty"`
	// Transformer describes a custom transformer workload instead.
	Transformer *core.TransformerSpec `json:"transformer,omitempty"`
	// Weight is the job's relative priority in the group objective and
	// the aggregate metrics (default 1). Unlike core workload weights, an
	// explicit 0 is meaningful: the job is priced and reported but does
	// not influence the group-optimized design or the partition search —
	// a scavenger tenant.
	Weight *float64 `json:"weight,omitempty"`
}

// weightOr1 resolves the job's weight (nil means the default 1).
func (j JobSpec) weightOr1() float64 {
	if j.Weight == nil {
		return 1
	}
	return *j.Weight
}

// Spec describes one multi-job shared-fabric bandwidth-allocation study:
// N concurrent jobs on one multi-dimensional topology under a shared
// per-NPU bandwidth budget, solved under one or more allocation policies.
// The zero Spec is the default Fig. 17(a) scenario.
//
// Specs are serializable (JSON), Clone-able, and fingerprint canonically
// like core.ProblemSpec: every spelling of the same study (implied
// defaults, reordered policies or budgets) digests identically.
type Spec struct {
	// Topology is a Table III preset name or block notation (default
	// DefaultTopology).
	Topology string `json:"topology,omitempty"`
	// Jobs lists the tenant jobs (default: DefaultJobs, the Fig. 17(a)
	// LLM mix). Job order is semantic — it fixes the report's row and
	// design order.
	Jobs []JobSpec `json:"jobs,omitempty"`
	// BudgetGBps is the shared per-NPU bandwidth budget (default: the
	// maximum of the Budgets axis when set, else DefaultBudgetGBps).
	BudgetGBps float64 `json:"budget_gbps,omitempty"`
	// Policies selects the allocation policies to solve (default: all
	// three). Order does not matter; the report uses canonical order.
	Policies []string `json:"policies,omitempty"`
	// PartitionSteps is the split granularity of the partition policy:
	// the budget is divided into this many equal units and every
	// composition granting each job at least one unit is searched.
	PartitionSteps int `json:"partition_steps,omitempty"`
	// Budgets optionally adds a budget axis: the group problem is swept
	// over these per-NPU budgets through internal/frontier and the report
	// carries the cluster frontier.
	Budgets []float64 `json:"budgets,omitempty"`
	// Objective is "perf" (default) or "perf-per-cost", shared by every
	// solve of the study.
	Objective string `json:"objective,omitempty"`
	// Loop is "no-overlap" (default) or "tp-dp-overlap".
	Loop string `json:"loop,omitempty"`
	// Compute overrides the A100 compute model.
	Compute *core.ComputeSpec `json:"compute,omitempty"`
	// Solver tunes the optimizer for every solve.
	Solver *core.SolverSpec `json:"solver,omitempty"`
	// MaxJobs overrides DefaultMaxJobs.
	MaxJobs int `json:"max_jobs,omitempty"`
}

// resolvedJob is one validated tenant: its label, weight, and the
// canonical spec of its single-job problem. defaultName is the name the
// job gets when none is given (its workload's), which the canonical
// form elides.
type resolvedJob struct {
	name        string
	defaultName string
	weight      float64
	spec        *core.ProblemSpec
}

// resolved is the validated, default-filled form of a Spec.
type resolved struct {
	net      *topology.Network
	topology string
	budget   float64
	jobs     []resolvedJob
	group    *core.ProblemSpec // positive-weight jobs only
	policies []string
	steps    int // partition granularity (0 when the policy is off)
	budgets  []float64
}

func (r *resolved) has(policy string) bool {
	for _, p := range r.policies {
		if p == policy {
			return true
		}
	}
	return false
}

// normalizePolicies validates and deduplicates the policy list into
// canonical order; empty selects every policy.
func normalizePolicies(in []string) ([]string, error) {
	if len(in) == 0 {
		return []string{PolicyGroupOpt, PolicyPartition, PolicyPerJobOpt}, nil
	}
	seen := map[string]bool{}
	for _, p := range in {
		switch p {
		case PolicyGroupOpt, PolicyPartition, PolicyPerJobOpt:
			seen[p] = true
		default:
			return nil, fmt.Errorf("%w: cluster: unknown policy %q (want %s, %s, or %s)",
				core.ErrBadSpec, p, PolicyGroupOpt, PolicyPartition, PolicyPerJobOpt)
		}
	}
	var out []string
	for _, p := range []string{PolicyGroupOpt, PolicyPartition, PolicyPerJobOpt} {
		if seen[p] {
			out = append(out, p)
		}
	}
	return out, nil
}

// resolve validates the spec, fills the zero-spec defaults, and derives
// the per-job and group problems. All failures are the caller's fault and
// wrap core.ErrBadSpec.
func (s *Spec) resolve() (*resolved, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: cluster: %s", core.ErrBadSpec, fmt.Sprintf(format, args...))
	}
	r := &resolved{budgets: append([]float64(nil), s.Budgets...)}
	for _, b := range r.budgets {
		if !(b > 0) {
			return nil, bad("budget axis values must be positive, got %v", b)
		}
	}
	sort.Float64s(r.budgets)

	r.budget = s.BudgetGBps
	if r.budget == 0 {
		if n := len(r.budgets); n > 0 {
			r.budget = r.budgets[n-1]
		} else {
			r.budget = DefaultBudgetGBps
		}
	}
	if !(r.budget > 0) {
		return nil, bad("budget must be positive, got %v", s.BudgetGBps)
	}

	var err error
	if r.policies, err = normalizePolicies(s.Policies); err != nil {
		return nil, err
	}

	jobSpecs := s.Jobs
	if len(jobSpecs) == 0 {
		jobSpecs = DefaultJobs()
	}
	maxJobs := s.MaxJobs
	if maxJobs == 0 {
		maxJobs = DefaultMaxJobs
	}
	if maxJobs < 0 {
		return nil, bad("max_jobs must be ≥ 0, got %d", s.MaxJobs)
	}
	if len(jobSpecs) > maxJobs {
		return nil, bad("%d jobs exceed the %d-job limit", len(jobSpecs), maxJobs)
	}

	r.jobs = make([]resolvedJob, len(jobSpecs))
	seen := map[string]bool{}
	positive := 0
	for i, js := range jobSpecs {
		w := js.weightOr1()
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, bad("job %d weight must be a finite value ≥ 0, got %v", i, w)
		}
		if w > 0 {
			positive++
		}
		spec := &core.ProblemSpec{
			Topology:   s.Topology,
			Workloads:  []core.WorkloadSpec{{Preset: js.Preset, Transformer: js.Transformer}},
			BudgetGBps: r.budget,
			Objective:  s.Objective,
			Loop:       s.Loop,
			Compute:    s.Compute,
			Solver:     s.Solver,
		}
		if spec.Topology == "" {
			spec.Topology = DefaultTopology
		}
		prob, err := spec.Build()
		if err != nil {
			return nil, fmt.Errorf("%w: cluster: job %d: %w", core.ErrBadSpec, i, err)
		}
		canon, err := prob.Spec()
		if err != nil {
			return nil, fmt.Errorf("%w: cluster: job %d: %w", core.ErrBadSpec, i, err)
		}
		defaultName := prob.Targets[0].Workload.Name
		name := js.Name
		if name == "" {
			name = defaultName
		}
		if seen[name] {
			return nil, bad("duplicate job name %q; name jobs explicitly to run one workload twice", name)
		}
		seen[name] = true
		r.jobs[i] = resolvedJob{name: name, defaultName: defaultName, weight: w, spec: canon}
		if i == 0 {
			r.net = prob.Net
			r.topology = canon.Topology
		}
	}
	if positive == 0 {
		return nil, bad("at least one job needs a positive weight")
	}

	// The group problem carries only the jobs that are allowed to shape
	// the shared design: an explicit weight of 0 excludes a job from the
	// objective (core itself treats weight 0 as the default 1, so the
	// exclusion must happen here).
	group := r.jobs[0].spec.Clone()
	group.Workloads = nil
	for _, j := range r.jobs {
		if j.weight <= 0 {
			continue
		}
		ws := j.spec.Workloads[0]
		ws.Weight = j.weight
		group.Workloads = append(group.Workloads, ws)
	}
	r.group = group

	if r.has(PolicyPartition) {
		r.steps = s.PartitionSteps
		if r.steps == 0 {
			r.steps = DefaultPartitionSteps
			if len(r.jobs) > r.steps {
				r.steps = len(r.jobs)
			}
		}
		switch {
		case r.steps < 2:
			return nil, bad("partition_steps must be ≥ 2, got %d", r.steps)
		case r.steps > MaxPartitionSteps:
			return nil, bad("partition_steps %d exceeds the %d-step limit", r.steps, MaxPartitionSteps)
		case r.steps < len(r.jobs):
			return nil, bad("partition_steps %d cannot grant %d jobs one unit each", r.steps, len(r.jobs))
		}
	} else if s.PartitionSteps < 0 {
		return nil, bad("partition_steps must be ≥ 0, got %d", s.PartitionSteps)
	}

	// One study's engine work is bounded like codesign's candidate×budget
	// grid: own-opt solves + the group solve + the partition share grid +
	// the frontier axis must stay under the shared solve limit.
	solves := len(r.jobs)
	if r.has(PolicyGroupOpt) || len(r.budgets) > 0 {
		solves++
	}
	if r.steps > 0 {
		solves += len(r.jobs) * (r.steps - len(r.jobs) + 1)
	}
	solves += len(r.budgets)
	if solves > core.MaxPoints {
		return nil, bad("%d solves exceed the %d-solve limit (jobs × partition_steps × budgets)", solves, core.MaxPoints)
	}
	return r, nil
}

// ---- Canonicalization and fingerprinting ----

// MarshalCanonical returns the spec's canonical JSON form: topology,
// objective, loop, compute, and solver re-derive through the core spec
// canonicalization, jobs keep their (semantic) order with derived names
// and default weights elided, policies and budgets sort canonically, and
// every field equal to the zero-spec default spells as absent — so the
// empty spec and its explicit spelling digest identically.
func (s *Spec) MarshalCanonical() ([]byte, error) {
	r, err := s.resolve()
	if err != nil {
		return nil, err
	}
	base := r.jobs[0].spec // canonical enum/model spellings, defaults elided
	canon := &Spec{
		Topology:  base.Topology,
		Objective: base.Objective,
		Loop:      base.Loop,
		Compute:   base.Compute,
		Solver:    base.Solver,
		Budgets:   r.budgets,
	}
	for _, j := range r.jobs {
		ws := j.spec.Workloads[0]
		js := JobSpec{Preset: ws.Preset, Transformer: ws.Transformer}
		if j.name != j.defaultName {
			js.Name = j.name
		}
		if j.weight != 1 {
			w := j.weight
			js.Weight = &w
		}
		canon.Jobs = append(canon.Jobs, js)
	}
	if reflect.DeepEqual(canon.Jobs, DefaultJobs()) {
		canon.Jobs = nil
	}
	if canon.Topology == DefaultTopology {
		canon.Topology = ""
	}
	// Elide the budget only when an absent field re-derives the same
	// value on re-parse (the axis maximum when a Budgets axis is set,
	// DefaultBudgetGBps otherwise).
	reDerived := float64(DefaultBudgetGBps)
	if len(r.budgets) > 0 {
		reDerived = r.budgets[len(r.budgets)-1]
	}
	if r.budget != reDerived {
		canon.BudgetGBps = r.budget
	}
	if len(r.policies) != 3 {
		canon.Policies = r.policies
	}
	if r.has(PolicyPartition) {
		def := DefaultPartitionSteps
		if len(r.jobs) > def {
			def = len(r.jobs)
		}
		if r.steps != def {
			canon.PartitionSteps = r.steps
		}
	}
	if s.MaxJobs != 0 && s.MaxJobs != DefaultMaxJobs {
		canon.MaxJobs = s.MaxJobs
	}
	return json.Marshal(canon)
}
