package codesign

import (
	"encoding/json"
	"fmt"
	"sort"

	"libra/internal/core"
	"libra/internal/topology"
	"libra/internal/workload"
)

// DefaultMaxCandidates bounds one co-design computation when the spec does
// not set its own limit. Every candidate costs a full bandwidth
// optimization, so an unbounded strategy grid from a small JSON body could
// monopolize the engine.
const DefaultMaxCandidates = 64

// Spec describes one joint parallelization-strategy × network-bandwidth
// co-design study (the paper's §VI-E): a base optimization instance whose
// single transformer workload is re-instantiated under every candidate
// HP-(TP, PP, DP) factorization of the NPU count, each candidate's
// bandwidth allocation optimized independently.
//
// Specs are serializable (JSON), Clone-able, and fingerprint canonically
// like core.ProblemSpec: every spelling of the same study (unsorted TP
// lists, implied defaults) digests identically.
type Spec struct {
	// Base is the problem template: topology, budget, objective, loop,
	// constraints, and solver tuning are shared by every candidate. Its
	// Workloads must hold exactly one entry naming a transformer — a
	// Table II transformer preset (Turing-NLG, GPT-3, MSFT-1T) or an
	// inline TransformerSpec shape — whose TP/PP/DP is swept.
	Base core.ProblemSpec `json:"base"`
	// TPs lists candidate tensor-parallel degrees. Empty means every
	// divisor of the NPU count.
	TPs []int `json:"tps,omitempty"`
	// PPs lists candidate pipeline-parallel degrees (default: no
	// pipelining, PP = 1).
	PPs []int `json:"pps,omitempty"`
	// Microbatches sets the GPipe microbatch count for PP > 1 candidates
	// (default: one microbatch per pipeline stage).
	Microbatches int `json:"microbatches,omitempty"`
	// MemoryGB is the per-NPU memory capacity feasibility filter.
	// Candidates whose Megatron+ZeRO footprint exceeds it are reported as
	// skipped, not solved. ≤ 0 disables filtering — the paper's §VI-E
	// CXL/CPU-extended-memory relaxation, under which every factorization
	// is admissible. Use workload.DefaultNPUMemoryGB for an A100-80GB.
	MemoryGB float64 `json:"memory_gb,omitempty"`
	// GlobalBatch fixes the global batch (samples per iteration across
	// all replicas) shared by every strategy, so the per-replica
	// minibatch scales with 1/DP — the tradeoff that peaks training
	// throughput at a mid-range TP (Fig. 21). Strategies whose DP does
	// not divide it cannot realize the batch exactly and are skipped, so
	// every ranked candidate really trains the same batch. Default: the
	// base strategy's minibatch × its data-parallel degree.
	GlobalBatch int `json:"global_batch,omitempty"`
	// Budgets optionally adds a budget axis: every candidate strategy is
	// additionally swept over these per-NPU bandwidth budgets through
	// internal/frontier, and the report carries the co-design frontier
	// (best strategy at each budget).
	Budgets []float64 `json:"budgets,omitempty"`
	// SkipEqualBW drops the per-candidate EqualBW baseline evaluations
	// (the reference baseline is always priced).
	SkipEqualBW bool `json:"skip_equal_bw,omitempty"`
	// MaxCandidates overrides DefaultMaxCandidates.
	MaxCandidates int `json:"max_candidates,omitempty"`
}

// ParseSpec decodes a Spec from JSON (see core.DecodeStrict).
func ParseSpec(data []byte) (*Spec, error) {
	return core.DecodeStrict[Spec](data, "codesign: bad spec")
}

// Clone deep-copies the spec (via its JSON form).
func (s *Spec) Clone() *Spec { return core.CloneJSON(s) }

// sweptModel is the resolved transformer whose strategy the study sweeps.
type sweptModel struct {
	cfg          workload.TransformerConfig
	weight       float64           // base workload weight, carried to every candidate
	base         workload.Strategy // the reference strategy
	baseMB       int               // per-replica minibatch under the base strategy
	globalBatch  int
	net          *topology.Network
	npus         int
	microbatches int // spec.Microbatches, 0 = per-candidate default (PP)
}

// resolve validates the spec and returns the swept model plus a normalized
// base spec (budget defaulted from the budget axis when absent). All
// failures are the caller's fault and wrap core.ErrBadSpec.
func (s *Spec) resolve() (*sweptModel, *core.ProblemSpec, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: codesign: %s", core.ErrBadSpec, fmt.Sprintf(format, args...))
	}
	base := s.Base.Clone()
	if base.BudgetGBps == 0 && len(s.Budgets) > 0 {
		for _, b := range s.Budgets {
			if b > base.BudgetGBps {
				base.BudgetGBps = b
			}
		}
	}
	for _, b := range s.Budgets {
		if !(b > 0) {
			return nil, nil, bad("budget axis values must be positive, got %v", b)
		}
	}
	net, err := base.Network()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", core.ErrBadSpec, err)
	}
	if len(base.Workloads) != 1 {
		return nil, nil, bad("base spec must carry exactly one swept workload, got %d", len(base.Workloads))
	}
	ws := base.Workloads[0]
	m := &sweptModel{
		weight:       ws.Weight,
		net:          net,
		npus:         net.NPUs(),
		microbatches: s.Microbatches,
	}
	switch {
	case ws.Preset != "" && ws.Transformer != nil:
		return nil, nil, bad("workload sets both preset %q and a transformer", ws.Preset)
	case ws.Preset != "":
		cfg, tp, err := workload.TransformerPresetConfig(ws.Preset)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: codesign: %w", core.ErrBadSpec, err)
		}
		if m.npus%tp != 0 {
			return nil, nil, bad("%s default TP=%d does not divide %d NPUs", ws.Preset, tp, m.npus)
		}
		m.cfg = cfg
		m.base = workload.Strategy{TP: tp, DP: m.npus / tp}
		m.baseMB = workload.DefaultMinibatch
	case ws.Transformer != nil:
		t, err := ws.Transformer.Normalized(m.npus)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: codesign: %w", core.ErrBadSpec, err)
		}
		m.cfg = workload.TransformerConfig{
			Name: t.Name, NumLayers: t.NumLayers, Hidden: t.Hidden,
			SeqLen: t.SeqLen, VocabSize: t.VocabSize,
		}
		if err := m.cfg.Validate(); err != nil {
			return nil, nil, fmt.Errorf("%w: codesign: %w", core.ErrBadSpec, err)
		}
		m.base = workload.Strategy{TP: t.TP, PP: t.PP, DP: t.DP}
		if m.base.NPUs() != m.npus {
			return nil, nil, bad("base strategy %v occupies %d NPUs on a %d-NPU topology", m.base, m.base.NPUs(), m.npus)
		}
		m.baseMB = t.Minibatch
		if m.microbatches == 0 {
			m.microbatches = t.Microbatches
		}
	default:
		return nil, nil, bad("workload needs a transformer preset name or an inline transformer shape")
	}
	m.globalBatch = s.GlobalBatch
	if m.globalBatch == 0 {
		m.globalBatch = m.baseMB * m.base.DP
	}
	if m.globalBatch < 1 {
		return nil, nil, bad("global batch must be ≥ 1, got %d", m.globalBatch)
	}
	if m.globalBatch%m.base.DP != 0 {
		return nil, nil, bad("global batch %d does not divide across the base strategy's %d replicas", m.globalBatch, m.base.DP)
	}
	for _, tp := range s.TPs {
		if tp < 1 {
			return nil, nil, bad("TP candidates must be ≥ 1, got %d", tp)
		}
	}
	for _, pp := range s.PPs {
		if pp < 1 {
			return nil, nil, bad("PP candidates must be ≥ 1, got %d", pp)
		}
	}
	if s.Microbatches < 0 {
		return nil, nil, bad("microbatches must be ≥ 0, got %d", s.Microbatches)
	}
	if s.MaxCandidates < 0 {
		return nil, nil, bad("max_candidates must be ≥ 0, got %d", s.MaxCandidates)
	}
	return m, base, nil
}

// candidate is one feasible strategy with its derived batch configuration
// and memory footprint.
type candidate struct {
	strat        workload.Strategy
	minibatch    int
	microbatches int // 0 when PP == 1
	mem          workload.MemoryFootprint
}

// enumerate expands the TP × PP grid into memory-feasible candidates plus
// the skipped strategies with their reasons. Only spec-level mistakes
// (empty result, over-limit grids) are errors; per-strategy infeasibility
// is data.
func (s *Spec) enumerate(m *sweptModel) ([]candidate, []Skipped, error) {
	tps := normalizeDegrees(s.TPs)
	if len(tps) == 0 {
		tps = divisors(m.npus)
	}
	pps := normalizeDegrees(s.PPs)
	if len(pps) == 0 {
		pps = []int{1}
	}
	maxCands := s.MaxCandidates
	if maxCands == 0 {
		maxCands = DefaultMaxCandidates
	}

	var cands []candidate
	var skipped []Skipped
	skip := func(strat workload.Strategy, mb int, memGB float64, format string, args ...any) {
		skipped = append(skipped, Skipped{
			Strategy: strat, Minibatch: mb, MemoryGB: memGB,
			Reason: fmt.Sprintf(format, args...),
		})
	}
	for _, pp := range pps {
		for _, tp := range tps {
			strat := workload.Strategy{TP: tp, DP: 0}
			if pp > 1 {
				strat.PP = pp
			}
			if m.npus%(tp*pp) != 0 {
				skip(strat, 0, 0, "TP×PP = %d does not divide %d NPUs", tp*pp, m.npus)
				continue
			}
			strat.DP = m.npus / (tp * pp)
			// Holding the global batch fixed is the point of the study:
			// a DP that cannot split it exactly would silently train a
			// different batch and rank apples against oranges.
			if m.globalBatch%strat.DP != 0 {
				skip(strat, 0, 0, "global batch %d does not divide across %d replicas", m.globalBatch, strat.DP)
				continue
			}
			mb := m.globalBatch / strat.DP
			c := candidate{strat: strat, minibatch: mb}
			if pp > 1 {
				if m.cfg.NumLayers%pp != 0 {
					skip(strat, mb, 0, "%d layers do not divide into %d pipeline stages", m.cfg.NumLayers, pp)
					continue
				}
				c.microbatches = m.microbatches
				if c.microbatches == 0 {
					c.microbatches = pp
				}
				if mb%c.microbatches != 0 {
					skip(strat, mb, 0, "minibatch %d does not divide into %d microbatches", mb, c.microbatches)
					continue
				}
			}
			mem, err := workload.TransformerFootprint(m.cfg, strat, mb)
			if err != nil {
				skip(strat, mb, 0, "%v", err)
				continue
			}
			c.mem = mem
			if !mem.Fits(s.MemoryGB) {
				skip(strat, mb, mem.TotalGB(), "needs %.1f GB per NPU, capacity %.0f GB", mem.TotalGB(), s.MemoryGB)
				continue
			}
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return nil, nil, fmt.Errorf("%w: codesign: no feasible candidate strategy (%d skipped)", core.ErrBadSpec, len(skipped))
	}
	if len(cands) > maxCands {
		return nil, nil, fmt.Errorf("%w: codesign: %d candidate strategies exceed the %d-candidate limit", core.ErrBadSpec, len(cands), maxCands)
	}
	// Candidate and budget limits compose multiplicatively — the frontier
	// mode runs one budget sweep per candidate — so the total solve count
	// of one study is bounded too, or a small request body could queue
	// candidates × budgets full optimizations on a shared engine.
	if n := len(cands) * (1 + len(s.Budgets)); n > core.MaxPoints {
		return nil, nil, fmt.Errorf("%w: codesign: %d candidates × %d budget-axis points exceed the %d-solve limit",
			core.ErrBadSpec, len(cands), len(s.Budgets), core.MaxPoints)
	}
	return cands, skipped, nil
}

// candidateSpec derives the per-candidate ProblemSpec: the base spec with
// its swept workload replaced by the candidate's transformer instance.
// Candidates travel as ordinary serializable specs, so the engine's
// fingerprint cache deduplicates repeats across studies and budgets.
func (m *sweptModel) candidateSpec(base *core.ProblemSpec, c candidate) *core.ProblemSpec {
	spec := base.Clone()
	t := &core.TransformerSpec{
		Name:      m.cfg.Name,
		NumLayers: m.cfg.NumLayers,
		Hidden:    m.cfg.Hidden,
		SeqLen:    m.cfg.SeqLen,
		VocabSize: m.cfg.VocabSize,
		TP:        c.strat.TP,
		DP:        c.strat.DP,
		Minibatch: c.minibatch,
	}
	if c.strat.PPOr1() > 1 {
		t.PP = c.strat.PP
		t.Microbatches = c.microbatches
	}
	spec.Workloads = []core.WorkloadSpec{{Transformer: t, Weight: m.weight}}
	return spec
}

// baselineCandidate is the reference strategy expressed as a candidate, so
// it derives its spec and minibatch through the same path.
func (m *sweptModel) baselineCandidate() candidate {
	c := candidate{strat: m.base, minibatch: m.globalBatch / m.base.DP}
	if m.base.PPOr1() > 1 {
		c.microbatches = m.microbatches
		if c.microbatches == 0 {
			c.microbatches = m.base.PP
		}
	}
	return c
}

// normalizeDegrees sorts and deduplicates a degree list.
func normalizeDegrees(in []int) []int {
	if len(in) == 0 {
		return nil
	}
	out := append([]int(nil), in...)
	sort.Ints(out)
	j := 0
	for i, v := range out {
		if i == 0 || v != out[j-1] {
			out[j] = v
			j++
		}
	}
	return out[:j]
}

// divisors returns every positive divisor of n in ascending order.
func divisors(n int) []int {
	var out []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
			if d != n/d {
				out = append(out, n/d)
			}
		}
	}
	sort.Ints(out)
	return out
}

// ---- Canonicalization and fingerprinting ----

// MarshalCanonical returns the spec's canonical JSON form: the base spec
// is materialized and re-derived exactly like ProblemSpec.MarshalCanonical,
// degree lists are sorted and deduplicated, and elidable defaults (PP=[1],
// derived global batch, DefaultMaxCandidates, non-positive memory caps)
// spell as absent.
func (s *Spec) MarshalCanonical() ([]byte, error) {
	m, base, err := s.resolve()
	if err != nil {
		return nil, err
	}
	if _, _, enumErr := s.enumerate(m); enumErr != nil {
		return nil, enumErr
	}
	p, err := base.Build()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", core.ErrBadSpec, err)
	}
	canonBase, err := p.Spec()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", core.ErrBadSpec, err)
	}
	canon := &Spec{
		Base:         *canonBase,
		TPs:          normalizeDegrees(s.TPs),
		PPs:          normalizeDegrees(s.PPs),
		Microbatches: m.microbatches,
		GlobalBatch:  s.GlobalBatch,
		Budgets:      append([]float64(nil), s.Budgets...),
		SkipEqualBW:  s.SkipEqualBW,
	}
	// The microbatch count resolves from the spec field with the base
	// transformer's own field as fallback; spell the resolved value once
	// at the top level so both spellings digest identically.
	if t := canon.Base.Workloads[0].Transformer; t != nil {
		t.Microbatches = 0
	}
	// The frontier is emitted budget-ascending regardless of the axis
	// order, so reordered budget lists describe the same study.
	sort.Float64s(canon.Budgets)
	if len(canon.PPs) == 1 && canon.PPs[0] == 1 {
		canon.PPs = nil
	}
	if s.MemoryGB > 0 {
		canon.MemoryGB = s.MemoryGB
	}
	if canon.GlobalBatch == m.baseMB*m.base.DP {
		canon.GlobalBatch = 0
	}
	if s.MaxCandidates != DefaultMaxCandidates {
		canon.MaxCandidates = s.MaxCandidates
	}
	return json.Marshal(canon)
}

// Fingerprint returns a stable hex digest of the canonical spec. Two specs
// describing the same co-design study fingerprint identically regardless
// of spelling.
func (s *Spec) Fingerprint() (string, error) { return core.Digest(s.MarshalCanonical()) }
