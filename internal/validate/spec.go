package validate

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"libra/internal/collective"
	"libra/internal/core"
	"libra/internal/sim"
	"libra/internal/timemodel"
	"libra/internal/topology"
	"libra/internal/workload"
)

// Defaults of the conformance matrix. The default axes are deliberately
// modest — three system scales, the three most collective-diverse Table II
// workloads, both training loops, and the four Fig. 6 patterns — so the
// whole matrix regenerates in seconds and can gate every push.
const (
	// DefaultTolerance is the committed divergence gate: every evaluated
	// scenario's |relative error| (total time and per-dimension busy time)
	// must stay within it. The chunk-pipeline simulator's fill/drain
	// bubbles put real scenarios a few percent above the analytical bound
	// (the paper reports ~5% mean vs ASTRA-sim); the transfer-DAG path
	// runs coarser chunking and sits slightly higher.
	DefaultTolerance = 0.15
	// DefaultBudgetGBps is the per-NPU bandwidth budget split equally
	// across dimensions for every scenario.
	DefaultBudgetGBps = 300
	// DefaultCollectiveBytes is the payload of the raw collective
	// scenarios.
	DefaultCollectiveBytes = 1e9
	// DefaultNPULevelChunks is the chunk count of the transfer-DAG path
	// (the full 64 chunks would schedule hundreds of thousands of
	// individual messages).
	DefaultNPULevelChunks = 16
	// DefaultNPULevelMaxNPUs caps the topologies the transfer-DAG path
	// simulates; larger systems are reported as skipped. Scheduling is
	// O(transfers²) and transfer counts grow with NPUs × chunks.
	DefaultNPULevelMaxNPUs = 128
	// MaxScenarios bounds one validation run, like core.MaxPoints.
	MaxScenarios = 4096
)

// DefaultTopologies returns the default topology axis: the three Table III
// scales the matrix covers (64, 512, and 4,096 NPUs).
func DefaultTopologies() []string {
	return []string{topology.Name3DTorus, topology.Name3D512, topology.Name4D4K}
}

// DefaultWorkloads returns the default workload axis: GPT-3 (TP+DP
// All-Reduce mix), MSFT-1T (TP-dominant), and DLRM (all-NPU All-to-All).
func DefaultWorkloads() []string {
	return []string{"GPT-3", "MSFT-1T", "DLRM"}
}

// DefaultLoops returns both Fig. 5 training loops.
func DefaultLoops() []string {
	return []string{timemodel.NoOverlap.Key(), timemodel.TPDPOverlap.Key()}
}

// DefaultCollectives returns the four Fig. 6 collective patterns.
func DefaultCollectives() []string {
	return []string{
		collective.ReduceScatter.Key(),
		collective.AllGather.Key(),
		collective.AllReduce.Key(),
		collective.AllToAll.Key(),
	}
}

// Spec describes one analytical-vs-simulator conformance run: the matrix
// axes, the simulation parameters, and the divergence tolerance. Zero or
// omitted fields take the defaults above, so the zero Spec is the default
// matrix. Specs are serializable (JSON), Clone-able, and fingerprint
// canonically like core.ProblemSpec and codesign.Spec: every spelling of
// the same matrix ("ar" vs "allreduce", listed vs implied defaults)
// digests identically.
type Spec struct {
	// Topologies lists Table III preset names or block notation.
	Topologies []string `json:"topologies,omitempty"`
	// Workloads lists Table II workload preset names for the
	// training-iteration scenarios.
	Workloads []string `json:"workloads,omitempty"`
	// Loops lists training loops ("no-overlap", "tp-dp-overlap").
	Loops []string `json:"loops,omitempty"`
	// Collectives lists raw collective patterns ("allreduce", ...).
	Collectives []string `json:"collectives,omitempty"`
	// BudgetGBps is the per-NPU bandwidth budget, split equally across
	// dimensions (EqualBW) for every scenario.
	BudgetGBps float64 `json:"budget_gbps,omitempty"`
	// CollectiveBytes is the raw collective payload in bytes.
	CollectiveBytes float64 `json:"collective_bytes,omitempty"`
	// Chunks is the chunk-pipeline simulator's chunk count (default: the
	// paper's 64).
	Chunks int `json:"chunks,omitempty"`
	// NPULevelChunks is the transfer-DAG path's chunk count.
	NPULevelChunks int `json:"npu_level_chunks,omitempty"`
	// NPULevelMaxNPUs caps transfer-DAG scenarios by system size; larger
	// topologies report the path as skipped.
	NPULevelMaxNPUs int `json:"npu_level_max_npus,omitempty"`
	// InNetwork requests in-network (switch-offload) All-Reduce
	// execution. The analytical model prices it (§IV-C), but neither
	// simulator backend models switch-side reduction, so affected
	// scenarios on switch-bearing topologies are reported as skipped with
	// that reason rather than compared.
	InNetwork bool `json:"in_network,omitempty"`
	// Tolerance is the |relative error| gate per evaluated scenario and
	// for the aggregate mean (default DefaultTolerance).
	Tolerance float64 `json:"tolerance,omitempty"`
}

// ParseSpec decodes a Spec from JSON (see core.DecodeStrict).
func ParseSpec(data []byte) (*Spec, error) {
	return core.DecodeStrict[Spec](data, "validate: bad spec")
}

// Clone deep-copies the spec (via its JSON form).
func (s *Spec) Clone() *Spec { return core.CloneJSON(s) }

// resolved is a spec with every default filled and every axis parsed.
type resolved struct {
	topologies  []string
	workloads   []string
	loops       []timemodel.Loop
	collectives []collective.Op
	budget      float64
	bytes       float64
	chunks      int
	npuChunks   int
	npuMax      int
	inNetwork   bool
	tolerance   float64
}

// resolve validates the spec and fills defaults. All failures are the
// caller's fault and wrap core.ErrBadSpec.
func (s *Spec) resolve() (*resolved, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: validate: %s", core.ErrBadSpec, fmt.Sprintf(format, args...))
	}
	r := &resolved{
		topologies: dedupe(s.Topologies),
		workloads:  dedupe(s.Workloads),
		budget:     s.BudgetGBps,
		bytes:      s.CollectiveBytes,
		chunks:     s.Chunks,
		npuChunks:  s.NPULevelChunks,
		npuMax:     s.NPULevelMaxNPUs,
		inNetwork:  s.InNetwork,
		tolerance:  s.Tolerance,
	}
	if len(r.topologies) == 0 {
		r.topologies = DefaultTopologies()
	}
	if len(r.workloads) == 0 {
		r.workloads = DefaultWorkloads()
	}
	loops := dedupe(s.Loops)
	if len(loops) == 0 {
		loops = DefaultLoops()
	}
	for _, l := range loops {
		loop, err := core.ParseLoop(l)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", core.ErrBadSpec, err)
		}
		r.loops = append(r.loops, loop)
	}
	r.loops = dedupeLoops(r.loops)
	ops := dedupe(s.Collectives)
	if len(ops) == 0 {
		ops = DefaultCollectives()
	}
	for _, o := range ops {
		op, err := collective.ParseOp(o)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", core.ErrBadSpec, err)
		}
		r.collectives = append(r.collectives, op)
	}
	r.collectives = dedupeOps(r.collectives)
	// Every topology must at least resolve; per-scenario failures beyond
	// that (workload instantiation, strategy mapping) are data, not errors.
	for _, t := range r.topologies {
		if _, err := resolveTopology(t); err != nil {
			return nil, fmt.Errorf("%w: %w", core.ErrBadSpec, err)
		}
	}
	if r.budget == 0 {
		r.budget = DefaultBudgetGBps
	}
	if !(r.budget > 0) {
		return nil, bad("budget must be positive, got %v", s.BudgetGBps)
	}
	if r.bytes == 0 {
		r.bytes = DefaultCollectiveBytes
	}
	if !(r.bytes > 0) {
		return nil, bad("collective payload must be positive, got %v", s.CollectiveBytes)
	}
	if r.chunks == 0 {
		r.chunks = sim.DefaultChunks
	}
	if r.chunks < 1 {
		return nil, bad("chunk count must be ≥ 1, got %d", s.Chunks)
	}
	if r.npuChunks == 0 {
		r.npuChunks = DefaultNPULevelChunks
	}
	if r.npuChunks < 1 {
		return nil, bad("NPU-level chunk count must be ≥ 1, got %d", s.NPULevelChunks)
	}
	if r.npuMax == 0 {
		r.npuMax = DefaultNPULevelMaxNPUs
	}
	if r.npuMax < 1 {
		return nil, bad("NPU-level NPU cap must be ≥ 1, got %d", s.NPULevelMaxNPUs)
	}
	if r.tolerance == 0 {
		r.tolerance = DefaultTolerance
	}
	if !(r.tolerance > 0) {
		return nil, bad("tolerance must be positive, got %v", s.Tolerance)
	}
	n := len(r.topologies) * (len(r.collectives)*2 + len(r.workloads)*len(r.loops))
	if n > MaxScenarios {
		return nil, bad("%d scenarios exceed the %d-scenario limit", n, MaxScenarios)
	}
	return r, nil
}

// resolveTopology reads a preset name or block notation.
func resolveTopology(name string) (*topology.Network, error) {
	net, err := topology.Preset(name)
	if err == nil {
		return net, nil
	}
	net, perr := topology.Parse(name)
	if perr != nil {
		return nil, fmt.Errorf("validate: topology %q is neither a preset nor block notation: %w", name, perr)
	}
	return net, nil
}

// buildWorkload instantiates a Table II preset on the topology's NPU
// count.
func buildWorkload(name string, npus int) (*workload.Workload, error) {
	return workload.Preset(name, npus)
}

// ---- Canonicalization and fingerprinting ----

// MarshalCanonical returns the spec's canonical JSON form: axes are
// sorted, deduplicated, and spelled with their canonical keys; defaults
// are elided. Scenario-set semantics are order-independent (the matrix is
// a set), so reordered axes describe the same run.
func (s *Spec) MarshalCanonical() ([]byte, error) {
	r, err := s.resolve()
	if err != nil {
		return nil, err
	}
	canon := &Spec{InNetwork: r.inNetwork}
	topos := append([]string(nil), r.topologies...)
	sort.Strings(topos)
	if !equalStrings(topos, sortedStrings(DefaultTopologies())) {
		canon.Topologies = topos
	}
	wls := append([]string(nil), r.workloads...)
	sort.Strings(wls)
	if !equalStrings(wls, sortedStrings(DefaultWorkloads())) {
		canon.Workloads = wls
	}
	loops := make([]string, len(r.loops))
	for i, l := range r.loops {
		loops[i] = l.Key()
	}
	sort.Strings(loops)
	if !equalStrings(loops, sortedStrings(DefaultLoops())) {
		canon.Loops = loops
	}
	ops := make([]string, len(r.collectives))
	for i, o := range r.collectives {
		ops[i] = o.Key()
	}
	sort.Strings(ops)
	if !equalStrings(ops, sortedStrings(DefaultCollectives())) {
		canon.Collectives = ops
	}
	if r.budget != DefaultBudgetGBps {
		canon.BudgetGBps = r.budget
	}
	if r.bytes != DefaultCollectiveBytes {
		canon.CollectiveBytes = r.bytes
	}
	if r.chunks != sim.DefaultChunks {
		canon.Chunks = r.chunks
	}
	if r.npuChunks != DefaultNPULevelChunks {
		canon.NPULevelChunks = r.npuChunks
	}
	if r.npuMax != DefaultNPULevelMaxNPUs {
		canon.NPULevelMaxNPUs = r.npuMax
	}
	if r.tolerance != DefaultTolerance {
		canon.Tolerance = r.tolerance
	}
	return json.Marshal(canon)
}

// Fingerprint returns a stable hex digest of the canonical spec. Two
// specs describing the same conformance matrix fingerprint identically
// regardless of spelling.
func (s *Spec) Fingerprint() (string, error) { return core.Digest(s.MarshalCanonical()) }

// ---- Small helpers ----

func dedupe(in []string) []string {
	var out []string
	seen := map[string]bool{}
	for _, v := range in {
		if v == "" || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

func dedupeLoops(in []timemodel.Loop) []timemodel.Loop {
	var out []timemodel.Loop
	seen := map[timemodel.Loop]bool{}
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func dedupeOps(in []collective.Op) []collective.Op {
	var out []collective.Op
	seen := map[collective.Op]bool{}
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func sortedStrings(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', 17, 64)
}
