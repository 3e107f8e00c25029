package validate

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"libra/internal/collective"
	"libra/internal/core"
	"libra/internal/sim"
	"libra/internal/timemodel"
	"libra/internal/topology"
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
	// MaxChunks bounds the chunk-pipeline's chunk count, which costs
	// O(chunks² · stages) per collective. The slowest default-axis
	// scenario at 1024 chunks, the MSFT-1T iteration on 4D-4K, simulates
	// in 0.24 s on a 2-vCPU Xeon, and the whole default matrix in 2.8 s
	// on one worker.
	MaxChunks = 1024
	// MaxNPULevelTransfers bounds the transfer DAG of every scenario the
	// transfer-DAG path would simulate: chunks × NPUs × Σ(group − 1) over
	// the collective's stages, scheduled in O(transfers²). It admits the
	// default 16 chunks on the 128-NPU torus RI(4)_RI(4)_RI(8) (All-Reduce:
	// 53,248 transfers, 2.9 s). The slowest admitted scenario measured,
	// FC(128) All-Reduce at 2 chunks (65,024 transfers), takes 4.2 s on a
	// 2-vCPU Xeon; the same topology at the default 16 chunks would take
	// minutes.
	MaxNPULevelTransfers = 1 << 16
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
	// paper's 64, at most MaxChunks).
	Chunks int `json:"chunks,omitempty"`
	// NPULevelChunks is the transfer-DAG path's chunk count. Together with
	// NPULevelMaxNPUs it must keep every simulated transfer DAG within
	// MaxNPULevelTransfers.
	NPULevelChunks int `json:"npu_level_chunks,omitempty"`
	// NPULevelMaxNPUs caps transfer-DAG scenarios by system size; larger
	// topologies report the path as skipped. Raising it brings larger
	// topologies under MaxNPULevelTransfers.
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
		topologies: dedupe(s.Topologies, ""),
		workloads:  dedupe(s.Workloads, ""),
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
	loops := dedupe(s.Loops, "")
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
	r.loops = dedupe(r.loops)
	ops := dedupe(s.Collectives, "")
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
	r.collectives = dedupe(r.collectives)
	// The work bound is checked before any topology is parsed.
	n := len(r.topologies) * (len(r.collectives)*2 + len(r.workloads)*len(r.loops))
	if n > core.MaxPoints {
		return nil, bad("%d scenarios exceed the %d-scenario limit", n, core.MaxPoints)
	}
	// Every topology must at least resolve; per-scenario failures beyond
	// that (workload instantiation, strategy mapping) are data, not errors.
	nets := make([]*topology.Network, len(r.topologies))
	for i, t := range r.topologies {
		net, err := (&core.ProblemSpec{Topology: t}).Network()
		if err != nil {
			return nil, fmt.Errorf("%w: %w", core.ErrBadSpec, err)
		}
		nets[i] = net
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
	if r.chunks > MaxChunks {
		return nil, bad("chunk count %d exceeds the %d-chunk limit", r.chunks, MaxChunks)
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
	// Only the transfer-DAG scenarios enumerate would run are bounded.
	for i, net := range nets {
		offload := switchOffload(net, r.inNetwork)
		for _, op := range r.collectives {
			if r.collectiveSkip(net, offload, op, PathTransferDAG) != "" {
				continue
			}
			if n := transferDAGSize(net, op, r.npuChunks); n > MaxNPULevelTransfers {
				return nil, bad("transfer-DAG scenario %s/%s needs %.0f transfers, over the %d-transfer limit (lower npu_level_chunks or npu_level_max_npus)",
					r.topologies[i], op.Key(), n, MaxNPULevelTransfers)
			}
		}
	}
	if r.tolerance == 0 {
		r.tolerance = DefaultTolerance
	}
	if !(r.tolerance > 0) {
		return nil, bad("tolerance must be positive, got %v", s.Tolerance)
	}
	return r, nil
}

// transferDAGSize is the number of transfers sim.BuildCollectiveTransfers
// schedules for op over all of net: per chunk, every stage sends g − 1
// shards out of each NPU. It is a float so huge chunk counts cannot
// overflow.
func transferDAGSize(net *topology.Network, op collective.Op, chunks int) float64 {
	mp := collective.FullMapping(net)
	perNPU := 0
	for _, st := range collective.Stages(op, mp) {
		perNPU += mp.Phases[st.PhaseIndex].Group - 1
	}
	return float64(chunks) * float64(net.NPUs()) * float64(perNPU)
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
	loops := make([]string, len(r.loops))
	for i, l := range r.loops {
		loops[i] = l.Key()
	}
	ops := make([]string, len(r.collectives))
	for i, o := range r.collectives {
		ops[i] = o.Key()
	}
	canon := &Spec{
		InNetwork:   r.inNetwork,
		Topologies:  canonAxis(r.topologies, DefaultTopologies()),
		Workloads:   canonAxis(r.workloads, DefaultWorkloads()),
		Loops:       canonAxis(loops, DefaultLoops()),
		Collectives: canonAxis(ops, DefaultCollectives()),
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

// ---- Small helpers ----

// dedupe returns in's distinct values in first-seen order, dropping the
// skip values too (the string axes skip "").
func dedupe[T comparable](in []T, skip ...T) []T {
	var out []T
	seen := map[T]bool{}
	for _, v := range skip {
		seen[v] = true
	}
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// canonAxis is an axis in canonical form: sorted, or nil (elided) when
// it holds exactly the default values.
func canonAxis(axis, defaults []string) []string {
	axis, defaults = slices.Clone(axis), slices.Clone(defaults)
	slices.Sort(axis)
	slices.Sort(defaults)
	if slices.Equal(axis, defaults) {
		return nil
	}
	return axis
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', 17, 64)
}
