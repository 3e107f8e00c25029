package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"

	"libra/internal/compute"
	"libra/internal/cost"
	"libra/internal/opt"
	"libra/internal/timemodel"
	"libra/internal/topology"
	"libra/internal/workload"
)

// ProblemSpec is a fully serializable, declarative description of a LIBRA
// optimization instance: everything a Problem holds, as data. Specs are
// the currency of the service layer — they travel as JSON, key the
// Engine's result cache through Fingerprint, and round-trip losslessly
// through Build and Problem.Spec.
//
// Zero/omitted fields take the paper's defaults: PerfOpt objective,
// no-overlap loop, Actual mapping policy, A100 compute, Table I costs,
// 0.1 GB/s dimension floor.
type ProblemSpec struct {
	// Topology is a Table III preset name ("4D-4K") or block notation
	// ("RI(4)_FC(8)_RI(4)_SW(32)").
	Topology string `json:"topology"`
	// Tiers optionally overrides the per-dimension physical tiers
	// (innermost first); omitted means the paper's default assignment.
	Tiers []string `json:"tiers,omitempty"`
	// Workloads lists the weighted target workloads.
	Workloads []WorkloadSpec `json:"workloads"`
	// BudgetGBps is the per-NPU bandwidth budget ΣB (GB/s).
	BudgetGBps float64 `json:"budget_gbps,omitempty"`
	// SkipBudget drops the ΣB row (iso-cost designs).
	SkipBudget bool `json:"skip_budget,omitempty"`
	// Objective is "perf" (default) or "perf-per-cost".
	Objective string `json:"objective,omitempty"`
	// Loop is "no-overlap" (default) or "tp-dp-overlap".
	Loop string `json:"loop,omitempty"`
	// OptPolicy is "actual" (default) or "ideal-full-dims".
	OptPolicy string `json:"opt_policy,omitempty"`
	// MinDimBW is the per-dimension bandwidth floor (default 0.1 GB/s).
	MinDimBW float64 `json:"min_dim_bw,omitempty"`
	// InNetwork marks switch-offloaded dimensions (innermost first).
	InNetwork []bool `json:"in_network,omitempty"`
	// Compute overrides the A100 compute model.
	Compute *ComputeSpec `json:"compute,omitempty"`
	// Cost overrides the Table I cost model.
	Cost *CostSpec `json:"cost,omitempty"`
	// Constraints holds the declarative design constraints.
	Constraints []ConstraintSpec `json:"constraints,omitempty"`
	// Solver tunes the optimizer.
	Solver *SolverSpec `json:"solver,omitempty"`
}

// WorkloadSpec declares one weighted target workload: either a Table II
// preset by name or an inline Megatron-style transformer shape.
type WorkloadSpec struct {
	// Preset is a Table II workload name (Turing-NLG, GPT-3, MSFT-1T,
	// DLRM, ResNet-50), instantiated on the spec topology's NPU count.
	Preset string `json:"preset,omitempty"`
	// Transformer describes a custom transformer workload instead.
	Transformer *TransformerSpec `json:"transformer,omitempty"`
	// Weight is the target's relative importance (default 1).
	Weight float64 `json:"weight,omitempty"`
}

// TransformerSpec is a declarative Megatron-LM + ZeRO-2 transformer
// workload: architecture shape plus parallelization strategy.
type TransformerSpec struct {
	Name      string `json:"name,omitempty"`
	NumLayers int    `json:"num_layers"`
	Hidden    int    `json:"hidden"`
	SeqLen    int    `json:"seq_len"`
	VocabSize int    `json:"vocab_size,omitempty"`
	// TP/PP/DP is the HP-(TP[, PP], DP) strategy. TP defaults to 1; DP
	// defaults to covering the remaining NPUs.
	TP int `json:"tp,omitempty"`
	PP int `json:"pp,omitempty"`
	DP int `json:"dp,omitempty"`
	// Minibatch is samples per DP replica (default 32, as in Fig. 1).
	Minibatch int `json:"minibatch,omitempty"`
	// Microbatches > 0 selects the GPipe-style pipelined generator.
	Microbatches int `json:"microbatches,omitempty"`
}

// Normalized fills the spec's defaulted fields for an npus-NPU system:
// TP defaults to 1, Minibatch to the paper's per-replica default, DP to
// covering the remaining NPUs (failing when TP×PP does not divide them),
// and an empty Name to the derived "transformer-LxHy" form. Both the
// spec build path and strategy-sweeping layers (internal/codesign) resolve
// through here, so the defaulting rules exist exactly once.
func (t TransformerSpec) Normalized(npus int) (TransformerSpec, error) {
	out := t
	if out.TP < 1 {
		out.TP = 1
	}
	if out.Minibatch < 1 {
		out.Minibatch = workload.DefaultMinibatch
	}
	pp := out.PP
	if pp < 1 {
		pp = 1
	}
	if out.DP < 1 {
		if npus%(out.TP*pp) != 0 {
			return TransformerSpec{}, fmt.Errorf("core: transformer TP=%d PP=%d does not divide %d NPUs", out.TP, pp, npus)
		}
		out.DP = npus / (out.TP * pp)
	}
	if out.Name == "" {
		out.Name = fmt.Sprintf("transformer-L%d-H%d", out.NumLayers, out.Hidden)
	}
	return out, nil
}

// ComputeSpec mirrors compute.Model as JSON.
type ComputeSpec struct {
	Name            string  `json:"name,omitempty"`
	EffectiveTFLOPS float64 `json:"effective_tflops"`
	MemoryBWGBps    float64 `json:"memory_bw_gbps"`
}

func (c *ComputeSpec) model() compute.Model {
	return compute.Model{Name: c.Name, EffectiveTFLOPS: c.EffectiveTFLOPS, MemoryBWGBps: c.MemoryBWGBps}
}

// CostComponentSpec mirrors cost.Component as JSON ($/GBps).
type CostComponentSpec struct {
	LinkPerGBps   float64 `json:"link_per_gbps,omitempty"`
	SwitchPerGBps float64 `json:"switch_per_gbps,omitempty"`
	NICPerGBps    float64 `json:"nic_per_gbps,omitempty"`
}

// CostSpec mirrors cost.Table as JSON, keyed by tier name.
type CostSpec struct {
	Name  string                       `json:"name,omitempty"`
	Tiers map[string]CostComponentSpec `json:"tiers"`
}

func (c *CostSpec) table() (cost.Table, error) {
	t := cost.Table{Name: c.Name, Tiers: map[topology.Tier]cost.Component{}}
	for name, comp := range c.Tiers {
		tier, err := topology.ParseTier(name)
		if err != nil {
			return cost.Table{}, err
		}
		t.Tiers[tier] = cost.Component{
			LinkPerGBps:   comp.LinkPerGBps,
			SwitchPerGBps: comp.SwitchPerGBps,
			NICPerGBps:    comp.NICPerGBps,
		}
	}
	return t, nil
}

// SolverSpec mirrors the tunable opt.Options fields as JSON. Execution
// tuning that cannot change the result (opt.Options.Workers — multistart
// is deterministic) is deliberately absent: specs describe the problem,
// and including worker counts would fracture the fingerprint cache.
type SolverSpec struct {
	MaxIters int     `json:"max_iters,omitempty"`
	Tol      float64 `json:"tol,omitempty"`
	Starts   int     `json:"starts,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	// Strategy selects the per-start local search. The default ("",
	// also spelled "projected-gradient" or "pgd") picks it from the
	// objective's convexity: projected gradient for perf, coordinate
	// descent for perf-per-cost, each with a Nelder-Mead polish.
	// "coordinate-descent" runs coordinate descent alone.
	Strategy string `json:"strategy,omitempty"`
}

func (s *SolverSpec) options() (opt.Options, error) {
	strat, err := opt.ParseStrategy(s.Strategy)
	if err != nil {
		return opt.Options{}, err
	}
	return opt.Options{MaxIters: s.MaxIters, Tol: s.Tol, Starts: s.Starts, Seed: s.Seed, Strategy: strat}, nil
}

// strategyKey canonicalizes the strategy for serialization: aliases
// ("cd", "pgd") normalize, unknown strategies fail, and the default, with
// its projected-gradient spellings, is the empty string, like every
// other enum.
func strategyKey(s opt.Strategy) (string, error) {
	strat, err := opt.ParseStrategy(string(s))
	return string(strat), err
}

// ---- Declarative constraints ----

// ConstraintKind enumerates the declarative design-constraint vocabulary.
type ConstraintKind string

const (
	// ConstraintDimCap caps one dimension: B_dim ≤ value.
	ConstraintDimCap ConstraintKind = "dim-cap"
	// ConstraintDimFloor floors one dimension: B_dim ≥ value.
	ConstraintDimFloor ConstraintKind = "dim-floor"
	// ConstraintOrdered orders two dimensions: B_dim ≥ B_dim2.
	ConstraintOrdered ConstraintKind = "ordered"
	// ConstraintPairSum pins a pair: B_dim + B_dim2 = value.
	ConstraintPairSum ConstraintKind = "pair-sum"
	// ConstraintSumAtMost bounds the total: ΣB ≤ value.
	ConstraintSumAtMost ConstraintKind = "sum-at-most"
	// ConstraintDollarBudget bounds network dollars: Σ rate_d·B_d ≤ value,
	// with rates derived from the problem's cost table (iso-cost designs).
	ConstraintDollarBudget ConstraintKind = "dollar-budget"
	// ConstraintWeightedSum bounds an arbitrary linear form: coef·B ≤ value.
	ConstraintWeightedSum ConstraintKind = "weighted-sum-at-most"
)

// ConstraintSpec is one declarative linear design constraint. Dimensions
// are 1-based, matching the paper's "Dim 1 … Dim N" and the CLI flags.
type ConstraintSpec struct {
	Kind  ConstraintKind `json:"kind"`
	Dim   int            `json:"dim,omitempty"`
	Dim2  int            `json:"dim2,omitempty"`
	Value float64        `json:"value,omitempty"`
	Coef  []float64      `json:"coef,omitempty"`
}

// DimCap caps dimension dim (1-based) at gbps.
func DimCap(dim int, gbps float64) ConstraintSpec {
	return ConstraintSpec{Kind: ConstraintDimCap, Dim: dim, Value: gbps}
}

// DimFloor floors dimension dim (1-based) at gbps.
func DimFloor(dim int, gbps float64) ConstraintSpec {
	return ConstraintSpec{Kind: ConstraintDimFloor, Dim: dim, Value: gbps}
}

// OrderedDims requires B_hi ≥ B_lo (1-based dimensions).
func OrderedDims(hi, lo int) ConstraintSpec {
	return ConstraintSpec{Kind: ConstraintOrdered, Dim: hi, Dim2: lo}
}

// PairSum pins B_a + B_b = gbps (1-based dimensions).
func PairSum(a, b int, gbps float64) ConstraintSpec {
	return ConstraintSpec{Kind: ConstraintPairSum, Dim: a, Dim2: b, Value: gbps}
}

// SumAtMost bounds the bandwidth total: ΣB ≤ gbps.
func SumAtMost(gbps float64) ConstraintSpec {
	return ConstraintSpec{Kind: ConstraintSumAtMost, Value: gbps}
}

// DollarBudget bounds the network dollar cost under the problem's cost
// table. Pair it with SkipBudget for the paper's iso-cost designs.
func DollarBudget(dollars float64) ConstraintSpec {
	return ConstraintSpec{Kind: ConstraintDollarBudget, Value: dollars}
}

// WeightedSumAtMost bounds coef·B ≤ v with one coefficient per dimension.
func WeightedSumAtMost(coef []float64, v float64) ConstraintSpec {
	cp := append([]float64(nil), coef...)
	return ConstraintSpec{Kind: ConstraintWeightedSum, Coef: cp, Value: v}
}

// Validate checks the constraint against an n-dimensional network.
func (c ConstraintSpec) Validate(ndims int) error {
	dimOK := func(d int) error {
		if d < 1 || d > ndims {
			return fmt.Errorf("core: constraint %s: dimension %d out of range 1..%d", c.Kind, d, ndims)
		}
		return nil
	}
	switch c.Kind {
	case ConstraintDimCap, ConstraintDimFloor:
		return dimOK(c.Dim)
	case ConstraintOrdered, ConstraintPairSum:
		if err := dimOK(c.Dim); err != nil {
			return err
		}
		if err := dimOK(c.Dim2); err != nil {
			return err
		}
		if c.Dim == c.Dim2 {
			return fmt.Errorf("core: constraint %s: dimensions must differ, got %d twice", c.Kind, c.Dim)
		}
		return nil
	case ConstraintSumAtMost, ConstraintDollarBudget:
		if !(c.Value > 0) {
			return fmt.Errorf("core: constraint %s: value must be positive, got %v", c.Kind, c.Value)
		}
		return nil
	case ConstraintWeightedSum:
		if len(c.Coef) != ndims {
			return fmt.Errorf("core: constraint %s: %d coefficients for %d dimensions", c.Kind, len(c.Coef), ndims)
		}
		return nil
	default:
		return fmt.Errorf("core: unknown constraint kind %q", c.Kind)
	}
}

// apply materializes the constraint into the solver's constraint set.
func (c ConstraintSpec) apply(cons *opt.Constraints, p *Problem) error {
	if err := c.Validate(cons.N()); err != nil {
		return err
	}
	switch c.Kind {
	case ConstraintDimCap:
		cons.VarAtMost(c.Dim-1, c.Value)
	case ConstraintDimFloor:
		cons.VarAtLeast(c.Dim-1, c.Value)
	case ConstraintOrdered:
		cons.Ordered(c.Dim-1, c.Dim2-1)
	case ConstraintPairSum:
		cons.PairSumEquals(c.Dim-1, c.Dim2-1, c.Value)
	case ConstraintSumAtMost:
		cons.SumAtMost(c.Value)
	case ConstraintDollarBudget:
		rates, err := cost.Rates(p.Cost, p.Net)
		if err != nil {
			return err
		}
		cons.WeightedSumAtMost(rates, c.Value)
	case ConstraintWeightedSum:
		cons.WeightedSumAtMost(c.Coef, c.Value)
	}
	return nil
}

// ---- Enum keys ----

// ParseObjective reads an objective key: "perf"/"PerfOptBW" (also the
// empty default) or "perf-per-cost"/"ppc"/"PerfPerCostOptBW".
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "", "perf", "perfopt", "PerfOptBW":
		return PerfOpt, nil
	case "perf-per-cost", "ppc", "perfpercost", "PerfPerCostOptBW":
		return PerfPerCostOpt, nil
	default:
		return 0, fmt.Errorf("core: unknown objective %q (want perf or perf-per-cost)", s)
	}
}

func objectiveKey(o Objective) string {
	if o == PerfPerCostOpt {
		return "perf-per-cost"
	}
	return ""
}

// ParseLoop reads a training-loop key: "no-overlap"/"nooverlap" (also the
// empty default) or "tp-dp-overlap"/"overlap".
func ParseLoop(s string) (timemodel.Loop, error) {
	switch s {
	case "", "no-overlap", "nooverlap":
		return timemodel.NoOverlap, nil
	case "tp-dp-overlap", "overlap":
		return timemodel.TPDPOverlap, nil
	default:
		return 0, fmt.Errorf("core: unknown training loop %q (want no-overlap or tp-dp-overlap)", s)
	}
}

func loopKey(l timemodel.Loop) string {
	if l == timemodel.TPDPOverlap {
		return l.Key()
	}
	return ""
}

// ParseMappingPolicy reads an optimizer mapping-policy key: "actual" (also
// the empty default) or "ideal-full-dims".
func ParseMappingPolicy(s string) (timemodel.MappingPolicy, error) {
	switch s {
	case "", "actual":
		return timemodel.Actual, nil
	case "ideal-full-dims", "ideal", "idealfulldims":
		return timemodel.IdealFullDims, nil
	default:
		return 0, fmt.Errorf("core: unknown mapping policy %q (want actual or ideal-full-dims)", s)
	}
}

func policyKey(p timemodel.MappingPolicy) string {
	if p == timemodel.IdealFullDims {
		return "ideal-full-dims"
	}
	return ""
}

// ---- The spec contract ----
//
// Every spec type (ProblemSpec here, and the codesign, validate and
// cluster specs) parses, clones and fingerprints the same way; these
// three helpers are that shared contract, and each type's ParseSpec,
// Clone and Fingerprint is a one-line delegation.

// DecodeStrict decodes exactly one JSON value into a new T. Unknown
// fields are rejected so typos in hand-written specs fail loudly, and so
// is anything but whitespace after the value. Errors are prefixed with
// what.
func DecodeStrict[T any](data []byte, what string) (*T, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var v T
	err := dec.Decode(&v)
	if err == nil && len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		err = errors.New("trailing data after the JSON value")
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	return &v, nil
}

// CloneJSON deep-copies v through its JSON form, falling back to a
// shallow copy for a value that does not round-trip.
func CloneJSON[T any](v *T) *T {
	var cp T
	data, err := json.Marshal(v)
	if err == nil {
		err = json.Unmarshal(data, &cp)
	}
	if err != nil {
		cp = *v
	}
	return &cp
}

// Digest is the hex SHA-256 of data, or err when err is set — shaped to
// take a canonical marshaler's results directly:
// Digest(s.MarshalCanonical()).
func Digest(data []byte, err error) (string, error) {
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// ParseSpec decodes a ProblemSpec from JSON (see DecodeStrict).
func ParseSpec(data []byte) (*ProblemSpec, error) {
	return DecodeStrict[ProblemSpec](data, "core: bad problem spec")
}

// ---- Spec → Problem ----

// resolveTopology reads a preset name or block notation plus optional
// tier overrides.
func resolveTopology(name string, tiers []string) (*topology.Network, error) {
	if name == "" {
		return nil, fmt.Errorf("core: spec has no topology")
	}
	net, err := topology.Preset(name)
	if err != nil {
		net, err = topology.Parse(name)
		if err != nil {
			return nil, fmt.Errorf("core: topology %q is neither a preset nor block notation: %w", name, err)
		}
	}
	if len(tiers) > 0 {
		if len(tiers) != net.NumDims() {
			return nil, fmt.Errorf("core: %d tier overrides for a %dD network", len(tiers), net.NumDims())
		}
		for i, ts := range tiers {
			t, err := topology.ParseTier(ts)
			if err != nil {
				return nil, err
			}
			net.SetTier(i, t)
		}
	}
	return net, nil
}

// Network resolves the spec's topology (preset name or block notation,
// plus tier overrides) without materializing the whole problem — the hook
// strategy-enumeration layers (internal/codesign) use to learn the NPU
// count before per-candidate workloads exist.
func (s *ProblemSpec) Network() (*topology.Network, error) {
	return resolveTopology(s.Topology, s.Tiers)
}

// build materializes the workload spec on an npus-NPU system and returns
// the normalized provenance recorded on the problem.
func (ws WorkloadSpec) build(npus int) (*workload.Workload, WorkloadSpec, error) {
	switch {
	case ws.Preset != "" && ws.Transformer != nil:
		return nil, WorkloadSpec{}, fmt.Errorf("core: workload spec sets both preset %q and a transformer", ws.Preset)
	case ws.Preset != "":
		w, err := workload.Preset(ws.Preset, npus)
		if err != nil {
			return nil, WorkloadSpec{}, err
		}
		return w, WorkloadSpec{Preset: ws.Preset}, nil
	case ws.Transformer != nil:
		t, err := ws.Transformer.Normalized(npus)
		if err != nil {
			return nil, WorkloadSpec{}, err
		}
		cfg := workload.TransformerConfig{
			Name: t.Name, NumLayers: t.NumLayers, Hidden: t.Hidden,
			SeqLen: t.SeqLen, VocabSize: t.VocabSize,
		}
		strat := workload.Strategy{TP: t.TP, PP: t.PP, DP: t.DP}
		var w *workload.Workload
		if t.Microbatches > 0 {
			if strat.PP < 1 {
				strat.PP = 1
			}
			w, err = workload.TransformerPP(cfg, strat, t.Minibatch, t.Microbatches)
		} else {
			w, err = workload.Transformer(cfg, strat, t.Minibatch)
		}
		if err != nil {
			return nil, WorkloadSpec{}, err
		}
		return w, WorkloadSpec{Transformer: &t}, nil
	default:
		return nil, WorkloadSpec{}, fmt.Errorf("core: workload spec needs a preset name or a transformer")
	}
}

// Build materializes the spec into a validated, optimizable Problem.
func (s *ProblemSpec) Build() (*Problem, error) {
	net, err := resolveTopology(s.Topology, s.Tiers)
	if err != nil {
		return nil, err
	}
	p := NewProblem(net, s.BudgetGBps)
	p.SkipBudget = s.SkipBudget
	if p.Objective, err = ParseObjective(s.Objective); err != nil {
		return nil, err
	}
	if p.Loop, err = ParseLoop(s.Loop); err != nil {
		return nil, err
	}
	if p.OptPolicy, err = ParseMappingPolicy(s.OptPolicy); err != nil {
		return nil, err
	}
	if s.MinDimBW > 0 {
		p.MinDimBW = s.MinDimBW
	}
	if len(s.InNetwork) > 0 {
		if len(s.InNetwork) != net.NumDims() {
			return nil, fmt.Errorf("core: %d in-network flags for a %dD network", len(s.InNetwork), net.NumDims())
		}
		p.InNetwork = append([]bool(nil), s.InNetwork...)
	}
	if s.Compute != nil {
		p.Compute = s.Compute.model()
	}
	if s.Cost != nil {
		if p.Cost, err = s.Cost.table(); err != nil {
			return nil, err
		}
	}
	if s.Solver != nil {
		if p.Solver, err = s.Solver.options(); err != nil {
			return nil, err
		}
	}
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("core: spec has no workloads")
	}
	for _, ws := range s.Workloads {
		w, src, err := ws.build(net.NPUs())
		if err != nil {
			return nil, err
		}
		p.Targets = append(p.Targets, Target{Workload: w, Weight: ws.Weight})
		p.sources = append(p.sources, src)
	}
	p.Constraints = append([]ConstraintSpec(nil), s.Constraints...)
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Clone deep-copies the spec (via its JSON form).
func (s *ProblemSpec) Clone() *ProblemSpec { return CloneJSON(s) }

// ---- Problem → Spec ----

func isPresetWorkload(name string) bool {
	for _, n := range workload.PresetNames() {
		if n == name {
			return true
		}
	}
	return false
}

// defaultCost is the Table I default Spec compares against; never
// mutated.
var defaultCost = cost.Default()

// Spec reconstructs the declarative description of the problem. It fails
// when the problem is not serializable: a hand-assembled target workload
// that is neither a Table II preset nor carries transformer provenance.
func (p *Problem) Spec() (*ProblemSpec, error) {
	if p.Net == nil {
		return nil, fmt.Errorf("core: problem has no network")
	}
	s := &ProblemSpec{
		Topology:   p.Net.Name(),
		BudgetGBps: p.BWBudget,
		SkipBudget: p.SkipBudget,
		Objective:  objectiveKey(p.Objective),
		Loop:       loopKey(p.Loop),
		OptPolicy:  policyKey(p.OptPolicy),
	}
	if def := topology.DefaultTiers(p.Net.NumDims()); !reflect.DeepEqual(tiersOf(p.Net), def) {
		for _, d := range p.Net.Dims() {
			s.Tiers = append(s.Tiers, d.Tier.String())
		}
	}
	if p.MinDimBW > 0 && p.MinDimBW != 0.1 {
		s.MinDimBW = p.MinDimBW
	}
	for _, b := range p.InNetwork {
		if b {
			s.InNetwork = append([]bool(nil), p.InNetwork...)
			break
		}
	}
	if p.Compute != compute.A100() {
		s.Compute = &ComputeSpec{
			Name:            p.Compute.Name,
			EffectiveTFLOPS: p.Compute.EffectiveTFLOPS,
			MemoryBWGBps:    p.Compute.MemoryBWGBps,
		}
	}
	if !p.Cost.Equal(defaultCost) {
		cs := &CostSpec{Name: p.Cost.Name, Tiers: map[string]CostComponentSpec{}}
		for tier, comp := range p.Cost.Tiers {
			cs.Tiers[tier.String()] = CostComponentSpec{
				LinkPerGBps:   comp.LinkPerGBps,
				SwitchPerGBps: comp.SwitchPerGBps,
				NICPerGBps:    comp.NICPerGBps,
			}
		}
		s.Cost = cs
	}
	skey, err := strategyKey(p.Solver.Strategy)
	if err != nil {
		return nil, err
	}
	if o := p.Solver; o.MaxIters != 0 || o.Tol != 0 || o.Starts != 0 || o.Seed != 0 || skey != "" {
		s.Solver = &SolverSpec{MaxIters: o.MaxIters, Tol: o.Tol, Starts: o.Starts, Seed: o.Seed, Strategy: skey}
	}
	for i, t := range p.Targets {
		ws, err := p.targetSpec(i)
		if err != nil {
			return nil, err
		}
		if w := t.Weight; w != 0 && w != 1 {
			ws.Weight = w
		}
		s.Workloads = append(s.Workloads, ws)
	}
	s.Constraints = append([]ConstraintSpec(nil), p.Constraints...)
	return s, nil
}

// targetSpec recovers the declarative source of target i, preferring
// recorded provenance and falling back to preset-name matching.
func (p *Problem) targetSpec(i int) (WorkloadSpec, error) {
	if i < len(p.sources) {
		src := p.sources[i]
		if src.Preset != "" || src.Transformer != nil {
			if src.Transformer != nil {
				t := *src.Transformer
				src.Transformer = &t
			}
			return src, nil
		}
	}
	w := p.Targets[i].Workload
	if w != nil && isPresetWorkload(w.Name) {
		return WorkloadSpec{Preset: w.Name}, nil
	}
	name := "<nil>"
	if w != nil {
		name = w.Name
	}
	return WorkloadSpec{}, fmt.Errorf("core: target %d (%s) is not spec-serializable; build it from a preset or WorkloadSpec", i, name)
}

func tiersOf(net *topology.Network) []topology.Tier {
	dims := net.Dims()
	out := make([]topology.Tier, len(dims))
	for i, d := range dims {
		out[i] = d.Tier
	}
	return out
}

// ---- Fingerprinting ----

// MarshalCanonical returns the spec's canonical JSON form: the spec is
// materialized into a Problem and re-derived, so every spelling of the
// same instance ("ppc" vs "perf-per-cost", implied vs explicit defaults)
// maps to identical bytes.
func (s *ProblemSpec) MarshalCanonical() ([]byte, error) {
	canon, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	return json.Marshal(canon)
}

// Canonical returns the spec's canonical form as a value (the spec
// MarshalCanonical serializes), for payloads that embed a problem spec.
func (s *ProblemSpec) Canonical() (*ProblemSpec, error) {
	p, err := s.Build()
	if err != nil {
		return nil, err
	}
	return p.Spec()
}

// Fingerprint returns a stable hex digest of the canonical spec — the
// Engine's cache key. Two specs describing the same optimization instance
// fingerprint identically regardless of spelling.
func (s *ProblemSpec) Fingerprint() (string, error) { return Digest(s.MarshalCanonical()) }

// Fingerprint returns the canonical digest of the problem (see
// ProblemSpec.Fingerprint); it fails for non-serializable problems.
func (p *Problem) Fingerprint() (string, error) {
	s, err := p.Spec()
	if err != nil {
		return "", err
	}
	return Digest(json.Marshal(s))
}
