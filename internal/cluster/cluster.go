// Package cluster allocates shared-fabric bandwidth across multiple
// concurrent training jobs — the paper's Fig. 17 group-optimization
// study (§VI-D) promoted from a one-off experiment loop to a subsystem
// for the cluster operator: N tenant jobs share one multi-dimensional
// topology under one per-NPU bandwidth budget, and the decision variable
// is how the fabric serves them.
//
// A study derives one single-job core.ProblemSpec per tenant plus a
// weighted group spec, and solves them concurrently, each on one column
// of a frontier.Solver — typically *core.Engine, which bounds workers,
// deduplicates identical solves via the spec fingerprint cache, and
// honors context cancellation. Three allocation policies are compared:
//
//   - group-opt: one shared bandwidth configuration minimizing the
//     weighted aggregate iteration time of every positive-weight job
//     (the Fig. 17 group problem generalized to weighted tenants);
//   - partition: the budget is split across jobs on a discrete grid,
//     each slice optimized for its job alone, and the split minimizing
//     the weighted aggregate time is found by dynamic programming;
//   - per-job-opt: the cross-evaluation baselines — every job's own
//     optimal network priced for every tenant, plus the workload-
//     agnostic EqualBW split.
//
// A job's column serves its own design, its partition share grid (a
// frontier.Walk) and its cross-evaluations, priced locally through the
// column's core.Evaluator (it depends only on the job and the fabric,
// never on the design priced); only optimizations reach the solver.
// Per-job and per-design failures are reported in place, as each row's
// Error message, so a report reads the same in process and decoded from
// JSON. The optional Budgets axis composes with internal/frontier into a
// cluster frontier for the group problem, the one spec a study opens
// twice.
package cluster

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"libra/internal/core"
	"libra/internal/frontier"
	"libra/internal/topology"
)

// GroupDesignName labels the group-optimized shared design in the
// report's design list (and the Fig. 17 tables).
const GroupDesignName = "Group-Opt"

// Job is one tenant of the study: its resolved weight and workload, the
// job's own optimal design on the full budget, and its EqualBW baseline
// time. A failed own-optimization carries its message in Error — the job
// still appears in every design's pricing, it just loses its
// slowdown-vs-own-opt column.
type Job struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
	// Workload is the canonical declarative workload of the job.
	Workload core.WorkloadSpec `json:"workload"`
	// OwnOpt is the job's own optimal design on the full shared budget
	// (absent when the optimization failed).
	OwnOpt *core.Result `json:"own_opt,omitempty"`
	// OwnTimeS is OwnOpt's iteration time — the denominator of every
	// slowdown metric.
	OwnTimeS float64 `json:"own_time_s,omitempty"`
	// EqualBWTimeS prices the job on the equal-split fabric — the
	// denominator-free baseline every speedup is measured against.
	EqualBWTimeS float64 `json:"equal_bw_time_s,omitempty"`
	Fingerprint  string  `json:"fingerprint,omitempty"`
	Cached       bool    `json:"cached,omitempty"`
	Error        string  `json:"error,omitempty"`
}

// Metrics is the shared shape of an allocation's pricing: per-job times
// in report job order plus the aggregate and fairness figures.
type Metrics struct {
	// TimesS holds per-job iteration times (seconds), report job order.
	// A zero entry marks a job the allocation could not price.
	TimesS []float64 `json:"times_s,omitempty"`
	// SpeedupVsEqualBW is EqualBW time / allocated time per job.
	SpeedupVsEqualBW []float64 `json:"speedup_vs_equal_bw,omitempty"`
	// SlowdownVsOwnOpt is allocated time / own-optimal time per job —
	// the Fig. 17 "how much does sharing hurt this tenant" column.
	SlowdownVsOwnOpt []float64 `json:"slowdown_vs_own_opt,omitempty"`
	// WeightedTimeS is the weight-averaged iteration time over the
	// positive-weight jobs — the group objective value.
	WeightedTimeS float64 `json:"weighted_time_s,omitempty"`
	// AggregateSpeedup is the weighted EqualBW time over WeightedTimeS.
	AggregateSpeedup float64 `json:"aggregate_speedup,omitempty"`
	// MaxSlowdown is the worst per-job slowdown vs own-opt (the
	// max-slowdown fairness figure); MeanSlowdown averages it.
	MaxSlowdown  float64 `json:"max_slowdown,omitempty"`
	MeanSlowdown float64 `json:"mean_slowdown,omitempty"`
	// JainFairness is Jain's index over per-job normalized service
	// own-opt time / allocated time: 1 when every tenant is slowed
	// equally, 1/N when one tenant gets everything.
	JainFairness float64 `json:"jain_fairness,omitempty"`
}

// Design is one shared bandwidth configuration priced for every job:
// a tenant's own optimal network (policy per-job-opt) or the
// group-optimized network (policy group-opt).
type Design struct {
	// Name is the owning job's name, or GroupDesignName.
	Name   string            `json:"name"`
	Policy string            `json:"policy"`
	BW     topology.BWConfig `json:"bw,omitempty"`
	Metrics
	Error string `json:"error,omitempty"`
}

// Partition is the best discrete budget split found by the partition
// policy: per-job bandwidth shares (each slice optimized for its job
// alone) and the resulting pricing.
type Partition struct {
	// Steps is the split granularity the grid was searched at.
	Steps int `json:"steps"`
	// SharesGBps is each job's slice of the budget, report job order.
	SharesGBps []float64 `json:"shares_gbps,omitempty"`
	// JobBW holds each job's optimized design inside its slice.
	JobBW []topology.BWConfig `json:"job_bw,omitempty"`
	Metrics
	Error string `json:"error,omitempty"`
}

// PolicySummary is one row of the study's headline comparison: the
// aggregate figures of a policy's chosen allocation.
type PolicySummary struct {
	Policy string `json:"policy"`
	// Design names the allocation the figures describe (a design name,
	// or "partition" for the split).
	Design           string  `json:"design"`
	WeightedTimeS    float64 `json:"weighted_time_s,omitempty"`
	AggregateSpeedup float64 `json:"aggregate_speedup,omitempty"`
	MaxSlowdown      float64 `json:"max_slowdown,omitempty"`
	JainFairness     float64 `json:"jain_fairness,omitempty"`
}

// Report is a computed cluster study.
type Report struct {
	Topology   string   `json:"topology"`
	NPUs       int      `json:"npus"`
	BudgetGBps float64  `json:"budget_gbps"`
	Policies   []string `json:"policies"`
	Jobs       []Job    `json:"jobs"`
	// Designs holds the shared configurations priced for every job:
	// per-job-opt designs in job order, then the group design last.
	Designs []Design `json:"designs,omitempty"`
	// Partition is the best budget split (policy partition only).
	Partition *Partition `json:"partition,omitempty"`
	// Summary compares the selected policies in canonical policy order.
	Summary []PolicySummary `json:"summary,omitempty"`
	// Frontier is the group problem swept over the Budgets axis.
	Frontier *frontier.Result `json:"frontier,omitempty"`
	// Solves counts fresh solver answers; CacheHits counts answers
	// served from the solver's fingerprint cache. Local evaluator
	// pricing is not counted — like frontier's EqualBW curve, it never
	// reaches the solver.
	Solves    int     `json:"solves"`
	CacheHits int     `json:"cache_hits"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// GroupDesign returns the group-optimized design, nil when the study
// did not run (or could not solve) the group-opt policy.
func (r *Report) GroupDesign() *Design {
	for i := range r.Designs {
		d := &r.Designs[i]
		if d.Name == GroupDesignName && d.Error == "" {
			return d
		}
	}
	return nil
}

// Compute runs the cluster study: optimize every job's own design, the
// weighted group design, and the partition share grid concurrently
// through the solver, price every shared design for every tenant via
// per-job hoisted evaluators, search the best budget split, and derive
// the aggregate and fairness metrics. The call fails only for an
// invalid spec, a canceled context, or an unpriceable job problem;
// per-job and per-design failures are reported in place. A context
// progress hook observes the fan-out under the "cluster" stage (and the
// budget-axis sweep under "cluster-frontier"). The solver must be safe
// for concurrent use: Compute issues every optimization at once and
// bounds nothing itself.
func Compute(ctx context.Context, s frontier.Solver, spec *Spec) (*Report, error) {
	if s == nil {
		return nil, fmt.Errorf("cluster: nil solver")
	}
	if spec == nil {
		spec = &Spec{}
	}
	r, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	// The frontier walks the group problem: refuse, before any solve, a
	// budget axis whose maximum it could not take.
	if n := len(r.budgets); n > 0 {
		at := *r.group
		at.BudgetGBps = r.budgets[n-1]
		if _, err := at.Build(); err != nil {
			return nil, fmt.Errorf("%w: cluster: budget axis: %w", core.ErrBadSpec, err)
		}
	}
	start := time.Now()
	nJobs := len(r.jobs)
	rep := &Report{
		Topology:   r.topology,
		NPUs:       r.net.NPUs(),
		BudgetGBps: r.budget,
		Policies:   r.policies,
		Jobs:       make([]Job, nJobs),
	}
	for i, j := range r.jobs {
		rep.Jobs[i] = Job{Name: j.name, Weight: j.weight, Workload: j.spec.Workloads[0]}
	}
	countHit := func(cached bool) {
		if cached {
			rep.CacheHits++
		} else {
			rep.Solves++
		}
	}

	// The planned design list is fixed up front so the progress stage
	// total is exact: per-job-opt designs in job order, group last.
	wantPerJob := r.has(PolicyPerJobOpt)
	wantGroup := r.has(PolicyGroupOpt)
	nDesigns := 0
	if wantPerJob {
		nDesigns += nJobs
	}
	if wantGroup {
		nDesigns++
	}
	shares := 0 // partition share-grid columns per job
	if r.has(PolicyPartition) {
		shares = r.steps - nJobs + 1
	}
	solvePlan := nJobs + nJobs*shares
	if wantGroup {
		solvePlan++
	}
	// One column per job. Opening builds the canonical spec resolve
	// already built, so only a faulty solver fails here.
	cols := make([]core.Column, nJobs)
	for i, j := range r.jobs {
		var err error
		if cols[i], err = s.Column(j.spec); err != nil {
			return nil, fmt.Errorf("cluster: job %s: %w", j.name, err)
		}
	}
	tracker := core.NewProgressTracker(ctx, "cluster", solvePlan+nJobs*(1+nDesigns))

	// Phase A: every optimization at once — own designs, the group
	// design, and each job's share grid as a warm walk of its column. The
	// solver bounds parallelism and deduplicates identical specs.
	// Canonical specs carry no warm start: own and group designs run cold.
	var (
		wg       sync.WaitGroup
		groupRes core.EngineResult
		groupErr error
		part     = make([][]frontier.Point, nJobs)
	)
	slices := make([]float64, shares)
	for k := range slices {
		slices[k] = r.budget * float64(k+1) / float64(r.steps)
	}
	for i := range cols {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cols[i].Optimize(ctx, r.budget, nil)
			out := &rep.Jobs[i]
			if err != nil {
				out.Error = err.Error()
				tracker.Tick(false)
				return
			}
			own := res.Result
			out.OwnOpt = &own
			out.OwnTimeS = own.Times[0]
			out.Fingerprint = res.Fingerprint
			out.Cached = res.Cached
			tracker.Tick(res.Cached)
		}(i)
	}
	if wantGroup {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var col core.Column
			if col, groupErr = s.Column(r.group); groupErr == nil {
				groupRes, groupErr = col.Optimize(ctx, r.budget, nil)
			}
			tracker.Tick(groupErr == nil && groupRes.Cached)
		}()
	}
	for i := 0; shares > 0 && i < nJobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			part[i] = frontier.Walk(ctx, cols[i], slices, false, tracker)
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range rep.Jobs {
		if rep.Jobs[i].Error == "" {
			countHit(rep.Jobs[i].Cached)
		}
	}
	if wantGroup && groupErr == nil {
		countHit(groupRes.Cached)
	}
	for _, points := range part {
		solves, hits := frontier.Tally(points)
		rep.Solves += solves
		rep.CacheHits += hits
	}

	// Assemble the design list from the phase-A answers.
	if wantPerJob {
		for i := range r.jobs {
			d := Design{Name: r.jobs[i].name, Policy: PolicyPerJobOpt, Error: rep.Jobs[i].Error}
			if d.Error == "" {
				d.BW = rep.Jobs[i].OwnOpt.BW
			}
			rep.Designs = append(rep.Designs, d)
		}
	}
	if wantGroup {
		d := Design{Name: GroupDesignName, Policy: PolicyGroupOpt}
		if groupErr != nil {
			d.Error = groupErr.Error()
		} else {
			d.BW = groupRes.Result.BW
		}
		rep.Designs = append(rep.Designs, d)
	}
	for di := range rep.Designs {
		rep.Designs[di].TimesS = make([]float64, nJobs)
	}

	// Phase B: price EqualBW and every design for every job through its
	// column's Evaluator — preparation is per-job, not per (job, design)
	// pair, and the pricing never reaches the solver. Each job's
	// goroutine owns its evaluator and its own index of every design's
	// TimesS slice, so the writes are disjoint.
	eqBW := topology.EqualBW(r.budget, r.net.NumDims())
	designErr := make([]error, nDesigns*nJobs)
	var evalWG sync.WaitGroup
	for i := range r.jobs {
		evalWG.Add(1)
		go func(i int) {
			defer evalWG.Done()
			// Build succeeded in resolve, so preparation failures are
			// exotic (unpriceable mapping); they fail the job's pricing.
			ev, err := cols[i].Evaluator()
			var eq core.Result
			if err == nil {
				eq, err = ev.Evaluate(eqBW)
			}
			if err == nil {
				rep.Jobs[i].EqualBWTimeS = eq.Times[0]
			} else if rep.Jobs[i].Error == "" {
				rep.Jobs[i].Error = err.Error()
			}
			if ev == nil {
				tracker.TickN(1+nDesigns, 0)
				return
			}
			tracker.Tick(false)
			for di := range rep.Designs {
				d := &rep.Designs[di]
				if d.Error != "" {
					tracker.Tick(false)
					continue
				}
				res, err := ev.Evaluate(d.BW)
				if err != nil {
					designErr[di*nJobs+i] = err
				} else {
					d.TimesS[i] = res.Times[0]
				}
				tracker.Tick(false)
			}
		}(i)
	}
	evalWG.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for di := range rep.Designs {
		d := &rep.Designs[di]
		for i := 0; i < nJobs && d.Error == ""; i++ {
			if err := designErr[di*nJobs+i]; err != nil {
				d.Error = fmt.Sprintf("cluster: pricing %s for %s: %v", d.Name, r.jobs[i].name, err)
			}
		}
		if d.Error == "" {
			d.Metrics = deriveMetrics(rep.Jobs, jobWeights(r), d.TimesS)
		}
	}

	if shares > 0 {
		rep.Partition = bestPartition(r, rep.Jobs, part, shares)
	}
	rep.Summary = summarize(rep)

	if len(r.budgets) > 0 {
		ft := core.NewProgressTracker(ctx, "cluster-frontier", len(r.budgets))
		fr, err := frontier.Compute(core.WithStage(ctx, ft), s, r.group, frontier.Request{Budgets: r.budgets})
		if err != nil {
			return nil, fmt.Errorf("cluster: frontier: %w", err)
		}
		rep.Frontier = fr
		rep.Solves += fr.Solves
		rep.CacheHits += fr.CacheHits
	}
	rep.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return rep, nil
}

// jobWeights extracts the resolved weight vector in job order.
func jobWeights(r *resolved) []float64 {
	ws := make([]float64, len(r.jobs))
	for i, j := range r.jobs {
		ws[i] = j.weight
	}
	return ws
}

// deriveMetrics prices an allocation's per-job times against the EqualBW
// and own-optimal baselines. Aggregates cover the positive-weight jobs
// (weight-0 scavengers are reported but don't move the objective);
// fairness covers every job the allocation and the baselines priced.
func deriveMetrics(jobs []Job, weights, times []float64) Metrics {
	n := len(jobs)
	m := Metrics{
		TimesS:           times,
		SpeedupVsEqualBW: make([]float64, n),
		SlowdownVsOwnOpt: make([]float64, n),
	}
	var wsum, wt, weq float64
	aggOK := true
	var slows []float64
	var jainX []float64
	for i := range jobs {
		t := times[i]
		if eq := jobs[i].EqualBWTimeS; t > 0 && eq > 0 {
			m.SpeedupVsEqualBW[i] = eq / t
		}
		if own := jobs[i].OwnTimeS; t > 0 && own > 0 {
			m.SlowdownVsOwnOpt[i] = t / own
			slows = append(slows, t/own)
			jainX = append(jainX, own/t)
		}
		if weights[i] > 0 {
			if t > 0 && jobs[i].EqualBWTimeS > 0 {
				wsum += weights[i]
				wt += weights[i] * t
				weq += weights[i] * jobs[i].EqualBWTimeS
			} else {
				aggOK = false
			}
		}
	}
	if aggOK && wsum > 0 {
		m.WeightedTimeS = wt / wsum
		m.AggregateSpeedup = weq / wt
	}
	if len(slows) > 0 {
		var sum, sumX, sumX2 float64
		for i, s := range slows {
			if s > m.MaxSlowdown {
				m.MaxSlowdown = s
			}
			sum += s
			sumX += jainX[i]
			sumX2 += jainX[i] * jainX[i]
		}
		m.MeanSlowdown = sum / float64(len(slows))
		if sumX2 > 0 {
			m.JainFairness = sumX * sumX / (float64(len(slows)) * sumX2)
		}
	}
	return m
}

// bestPartition searches the discrete budget-split grid by dynamic
// programming: cost[j][k] is job j's weighted time on a slice of k
// units, and the DP minimizes the summed cost over compositions of
// exactly `steps` units granting every job at least one. Infeasible
// cells (failed solves) price +Inf and simply lose the search; the
// partition only fails when no composition is fully feasible.
func bestPartition(r *resolved, jobs []Job, part [][]frontier.Point, shares int) *Partition {
	nJobs := len(r.jobs)
	p := &Partition{Steps: r.steps}
	cellTime := func(job, k int) float64 { // k is 1-based units
		if cell := part[job][k-1]; cell.Error == "" {
			return cell.Result.Times[0]
		}
		return math.Inf(1)
	}
	// dp[j][s]: minimal weighted-time sum over the first j jobs using
	// exactly s units; choose[j][s] records the winning slice of job j-1.
	inf := math.Inf(1)
	dp := make([][]float64, nJobs+1)
	choose := make([][]int, nJobs+1)
	for j := range dp {
		dp[j] = make([]float64, r.steps+1)
		choose[j] = make([]int, r.steps+1)
		for s := range dp[j] {
			dp[j][s] = inf
		}
	}
	dp[0][0] = 0
	for j := 1; j <= nJobs; j++ {
		w := r.jobs[j-1].weight
		for s := j; s <= r.steps; s++ {
			kmax := shares
			if rem := s - (j - 1); rem < kmax {
				kmax = rem // leave one unit for every remaining job
			}
			for k := 1; k <= kmax; k++ {
				prev := dp[j-1][s-k]
				if math.IsInf(prev, 1) {
					continue
				}
				t := cellTime(j-1, k)
				if math.IsInf(t, 1) {
					continue
				}
				cand := prev + w*t
				if cand < dp[j][s] {
					dp[j][s] = cand
					choose[j][s] = k
				}
			}
		}
	}
	if math.IsInf(dp[nJobs][r.steps], 1) {
		p.Error = fmt.Sprintf("cluster: no feasible %d-way split of the budget at %d steps", nJobs, r.steps)
		return p
	}
	units := make([]int, nJobs)
	for j, s := nJobs, r.steps; j >= 1; j-- {
		units[j-1] = choose[j][s]
		s -= choose[j][s]
	}
	p.SharesGBps = make([]float64, nJobs)
	p.JobBW = make([]topology.BWConfig, nJobs)
	times := make([]float64, nJobs)
	for i, k := range units {
		p.SharesGBps[i] = r.budget * float64(k) / float64(r.steps)
		res := part[i][k-1].Result
		p.JobBW[i] = res.BW
		times[i] = res.Times[0]
	}
	p.Metrics = deriveMetrics(jobs, jobWeights(r), times)
	return p
}

// summarize assembles the policy comparison in canonical policy order:
// group-opt reports the group design, partition the best split, and
// per-job-opt the single-job design with the best weighted time (the
// strongest cross-evaluation baseline).
func summarize(rep *Report) []PolicySummary {
	var out []PolicySummary
	row := func(policy, design string, m Metrics) {
		out = append(out, PolicySummary{
			Policy:           policy,
			Design:           design,
			WeightedTimeS:    m.WeightedTimeS,
			AggregateSpeedup: m.AggregateSpeedup,
			MaxSlowdown:      m.MaxSlowdown,
			JainFairness:     m.JainFairness,
		})
	}
	for _, policy := range rep.Policies {
		switch policy {
		case PolicyGroupOpt:
			if d := rep.GroupDesign(); d != nil {
				row(policy, d.Name, d.Metrics)
			}
		case PolicyPartition:
			if p := rep.Partition; p != nil && p.Error == "" {
				row(policy, "partition", p.Metrics)
			}
		case PolicyPerJobOpt:
			best := -1
			for i := range rep.Designs {
				d := &rep.Designs[i]
				if d.Policy != PolicyPerJobOpt || d.Error != "" || d.WeightedTimeS <= 0 {
					continue
				}
				if best < 0 || d.WeightedTimeS < rep.Designs[best].WeightedTimeS {
					best = i
				}
			}
			if best >= 0 {
				row(policy, rep.Designs[best].Name, rep.Designs[best].Metrics)
			}
		}
	}
	return out
}
