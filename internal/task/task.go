// Package task defines LIBRA's polymorphic task envelope — the one
// serializable currency every service surface (HTTP v1/v2, the async job
// API, the CLI, the client SDK) speaks.
//
// A Task is `{"kind": ..., "spec": ...}` where kind selects one of the
// seven operations the Engine answers (optimize, evaluate, sweep,
// frontier, codesign, validate, cluster) and spec is exactly that kind's
// request payload — the same bodies the /v1 endpoints accept, so every
// existing spec JSON embeds unchanged. Parse is strict (unknown fields
// and trailing data rejected at every level), MarshalCanonical reuses
// each kind's canonicalization so every spelling of the same task maps to
// identical bytes, and Fingerprint digests the canonical form — the
// cache/idempotency key of the task.
//
// Everything the package knows about a kind lives in one row of the
// registry table: how its payload parses and canonicalizes, how it runs
// against the Engine, and how its JSON result decodes. Parse, the
// marshalers, Run and DecodeResult are lookups in that table, and so are
// the surfaces built on it (the /v1 routes, the CLI's remote runner, the
// client's typed accessors). Anything above Run is transport.
package task

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"libra/internal/cluster"
	"libra/internal/codesign"
	"libra/internal/core"
	"libra/internal/frontier"
	"libra/internal/telemetry"
	"libra/internal/topology"
	"libra/internal/validate"
)

// Kind selects the operation a Task requests.
type Kind string

// The seven task kinds — every request path in the system is one of
// these.
const (
	KindOptimize Kind = "optimize"
	KindEvaluate Kind = "evaluate"
	KindSweep    Kind = "sweep"
	KindFrontier Kind = "frontier"
	KindCoDesign Kind = "codesign"
	KindValidate Kind = "validate"
	KindCluster  Kind = "cluster"
)

// Kinds returns every valid kind in canonical order.
func Kinds() []Kind {
	out := make([]Kind, len(registry))
	for i, d := range registry {
		out[i] = d.kind()
	}
	return out
}

// Valid reports whether k names a known kind.
func (k Kind) Valid() bool {
	_, err := lookup(k)
	return err == nil
}

// EvaluateSpec is the evaluate-kind payload: price one explicit
// bandwidth allocation for a problem (the /v1/evaluate body).
type EvaluateSpec struct {
	Spec *core.ProblemSpec `json:"spec"`
	BW   topology.BWConfig `json:"bw"`
}

// SweepSpec is the sweep-kind payload: a base problem crossed with
// topology × budget × objective axes (the /v1/sweep body).
type SweepSpec struct {
	Spec  *core.ProblemSpec `json:"spec"`
	Sweep core.SweepRequest `json:"sweep"`
}

// FrontierSpec is the frontier-kind payload: a base problem plus the
// budget/cap sweep axes (the /v1/frontier body).
type FrontierSpec struct {
	Spec     *core.ProblemSpec `json:"spec"`
	Frontier frontier.Request  `json:"frontier"`
}

// SweepResult wraps a sweep's points exactly as /v1/sweep serializes
// them, so the envelope dispatch and the legacy endpoint answer
// byte-identically.
type SweepResult struct {
	Points []core.SweepPoint `json:"points"`
}

// Task is the parsed envelope: Kind plus that kind's payload in Spec
// (*core.ProblemSpec for optimize, *EvaluateSpec, *SweepSpec,
// *FrontierSpec, *codesign.Spec, *validate.Spec or *cluster.Spec). Build
// one with the New* constructors or Parse; the zero Task is invalid, and
// a Spec whose type does not match Kind is rejected with core.ErrBadSpec.
type Task struct {
	Kind Kind
	Spec any
}

// NewOptimize wraps a ProblemSpec as an optimize task.
func NewOptimize(spec *core.ProblemSpec) *Task { return &Task{Kind: KindOptimize, Spec: spec} }

// NewEvaluate wraps a ProblemSpec plus an explicit bandwidth allocation
// as an evaluate task.
func NewEvaluate(spec *core.ProblemSpec, bw topology.BWConfig) *Task {
	return &Task{Kind: KindEvaluate, Spec: &EvaluateSpec{Spec: spec, BW: bw}}
}

// NewSweep wraps a base spec and sweep axes as a sweep task.
func NewSweep(spec *core.ProblemSpec, req core.SweepRequest) *Task {
	return &Task{Kind: KindSweep, Spec: &SweepSpec{Spec: spec, Sweep: req}}
}

// NewFrontier wraps a base spec and frontier axes as a frontier task.
func NewFrontier(spec *core.ProblemSpec, req frontier.Request) *Task {
	return &Task{Kind: KindFrontier, Spec: &FrontierSpec{Spec: spec, Frontier: req}}
}

// NewCoDesign wraps a co-design study spec as a codesign task.
func NewCoDesign(spec *codesign.Spec) *Task { return &Task{Kind: KindCoDesign, Spec: spec} }

// NewValidate wraps a conformance-matrix spec as a validate task; nil
// selects the default matrix.
func NewValidate(spec *validate.Spec) *Task {
	if spec == nil {
		spec = &validate.Spec{}
	}
	return &Task{Kind: KindValidate, Spec: spec}
}

// NewCluster wraps a multi-job allocation study spec as a cluster task;
// nil selects the default Fig. 17(a) scenario.
func NewCluster(spec *cluster.Spec) *Task {
	if spec == nil {
		spec = &cluster.Spec{}
	}
	return &Task{Kind: KindCluster, Spec: spec}
}

// ---- The registry ----

// registry is every kind in canonical order, one row each. Adding a task
// kind means writing its payload and result types and one kindDef row
// here; nothing else in the service switches on Kind.
var registry = []descriptor{
	kindDef[core.ProblemSpec, core.EngineResult]{
		name:      KindOptimize,
		canonical: (*core.ProblemSpec).MarshalCanonical,
		run: func(ctx context.Context, e *core.Engine, s *core.ProblemSpec) (core.EngineResult, error) {
			return e.Optimize(ctx, s)
		},
	},
	kindDef[EvaluateSpec, core.EngineResult]{
		name: KindEvaluate,
		base: func(s *EvaluateSpec) **core.ProblemSpec { return &s.Spec },
		run: func(ctx context.Context, e *core.Engine, s *EvaluateSpec) (core.EngineResult, error) {
			return e.Evaluate(ctx, s.Spec, s.BW)
		},
	},
	kindDef[SweepSpec, *SweepResult]{
		name: KindSweep,
		base: func(s *SweepSpec) **core.ProblemSpec { return &s.Spec },
		run: func(ctx context.Context, e *core.Engine, s *SweepSpec) (*SweepResult, error) {
			points, err := e.Sweep(ctx, s.Spec, s.Sweep)
			if err != nil {
				return nil, err
			}
			return &SweepResult{Points: points}, nil
		},
	},
	kindDef[FrontierSpec, *frontier.Result]{
		name: KindFrontier,
		base: func(s *FrontierSpec) **core.ProblemSpec { return &s.Spec },
		run: func(ctx context.Context, e *core.Engine, s *FrontierSpec) (*frontier.Result, error) {
			return frontier.Compute(ctx, e, s.Spec, s.Frontier)
		},
	},
	kindDef[codesign.Spec, *codesign.Report]{
		name:      KindCoDesign,
		canonical: (*codesign.Spec).MarshalCanonical,
		run: func(ctx context.Context, e *core.Engine, s *codesign.Spec) (*codesign.Report, error) {
			return codesign.Compute(ctx, e, s)
		},
	},
	kindDef[validate.Spec, *validate.Report]{
		name:      KindValidate,
		defaulted: true,
		canonical: (*validate.Spec).MarshalCanonical,
		run: func(ctx context.Context, e *core.Engine, s *validate.Spec) (*validate.Report, error) {
			return validate.Compute(ctx, e, s)
		},
	},
	kindDef[cluster.Spec, *cluster.Report]{
		name:      KindCluster,
		defaulted: true,
		canonical: (*cluster.Spec).MarshalCanonical,
		run: func(ctx context.Context, e *core.Engine, s *cluster.Spec) (*cluster.Report, error) {
			return cluster.Compute(ctx, e, s)
		},
	},
}

// descriptor is the kind-erased view of a registry row.
type descriptor interface {
	kind() Kind
	// parse strictly decodes a kind payload; an empty payload selects
	// the kind's default spec or fails.
	parse(payload []byte) (any, error)
	// marshal emits a Task.Spec's payload bytes, canonical or verbatim.
	marshal(spec any, canonical bool) ([]byte, error)
	// runSpec answers a Task.Spec through the engine.
	runSpec(ctx context.Context, e *core.Engine, spec any) (any, error)
	// decodeResult decodes run's JSON result into the type run returns.
	decodeResult(data []byte) (any, error)
}

// kindDef is one registry row for a kind whose payload is *S and whose
// Run result is R.
type kindDef[S, R any] struct {
	name Kind
	// defaulted kinds treat an empty payload (or a nil Spec) as the zero
	// S, their default study; the others need a spec.
	defaulted bool
	// canonical marshals a payload that is a spec type itself.
	canonical func(*S) ([]byte, error)
	// base instead addresses the problem embedded in a problem-plus-axes
	// payload (evaluate, sweep, frontier): that problem must be set, and
	// the canonical form is the payload with it canonicalized.
	base func(*S) **core.ProblemSpec
	run  func(context.Context, *core.Engine, *S) (R, error)
}

func (d kindDef[S, R]) kind() Kind { return d.name }

// spec resolves a Task.Spec to the row's payload type, applying the
// default and rejecting a missing or mistyped payload.
func (d kindDef[S, R]) spec(v any) (*S, error) {
	s, ok := v.(*S)
	if v != nil && !ok {
		return nil, fmt.Errorf("%w: %s task carries a %T payload, want %T", core.ErrBadSpec, d.name, v, s)
	}
	if s == nil && d.defaulted {
		s = new(S)
	}
	if s == nil || (d.base != nil && *d.base(s) == nil) {
		return nil, fmt.Errorf("%w: %s task needs a spec", core.ErrBadSpec, d.name)
	}
	return s, nil
}

func (d kindDef[S, R]) parse(payload []byte) (any, error) {
	var s *S
	if len(bytes.TrimSpace(payload)) > 0 {
		var err error
		if s, err = core.DecodeStrict[S](payload, string(d.name)); err != nil {
			return nil, fmt.Errorf("%w: %w", core.ErrBadSpec, err)
		}
	}
	s, err := d.spec(s)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (d kindDef[S, R]) marshal(v any, canonical bool) ([]byte, error) {
	s, err := d.spec(v)
	if err != nil {
		return nil, err
	}
	if !canonical {
		return json.Marshal(s)
	}
	if d.base == nil {
		return d.canonical(s)
	}
	cp := *s
	canon, err := (*d.base(&cp)).Canonical()
	if err != nil {
		return nil, err
	}
	*d.base(&cp) = canon
	return json.Marshal(&cp)
}

func (d kindDef[S, R]) runSpec(ctx context.Context, e *core.Engine, v any) (any, error) {
	s, err := d.spec(v)
	if err != nil {
		return nil, err
	}
	res, err := d.run(ctx, e, s)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (d kindDef[S, R]) decodeResult(data []byte) (any, error) {
	var res R
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("task: decode %s result: %w", d.name, err)
	}
	return res, nil
}

// lookup returns kind k's registry row, or an ErrBadSpec naming the
// valid kinds.
func lookup(k Kind) (descriptor, error) {
	for _, d := range registry {
		if d.kind() == k {
			return d, nil
		}
	}
	return nil, fmt.Errorf("%w: unknown task kind %q (want one of %s)", core.ErrBadSpec, k, kindList())
}

func kindList() string {
	ks := Kinds()
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = string(k)
	}
	return strings.Join(out, "|")
}

// envelope is the wire form of a Task.
type envelope struct {
	Kind Kind            `json:"kind"`
	Spec json.RawMessage `json:"spec,omitempty"`
}

// Parse strictly decodes a task envelope: unknown fields and trailing
// data are rejected in the envelope and in every kind payload, exactly
// as the /v1 endpoints reject them. All parse failures are ErrBadSpec —
// the caller's fault.
func Parse(data []byte) (*Task, error) {
	env, err := core.DecodeStrict[envelope](data, "task envelope")
	if err != nil {
		return nil, fmt.Errorf("%w: %w", core.ErrBadSpec, err)
	}
	return FromKindPayload(env.Kind, env.Spec)
}

// FromKindPayload parses a bare kind payload — the exact /v1 request body
// for that kind — into a Task, with the same strictness as Parse. An
// empty payload is only legal for validate (the default matrix) and
// cluster (the default Fig. 17(a) scenario).
func FromKindPayload(kind Kind, payload []byte) (*Task, error) {
	d, err := lookup(kind)
	if err != nil {
		return nil, err
	}
	spec, err := d.parse(payload)
	if err != nil {
		return nil, err
	}
	return &Task{Kind: kind, Spec: spec}, nil
}

// marshal emits the envelope with the payload canonical or verbatim.
func (t *Task) marshal(canonical bool) ([]byte, error) {
	d, err := lookup(t.Kind)
	if err != nil {
		return nil, err
	}
	payload, err := d.marshal(t.Spec, canonical)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{Kind: t.Kind, Spec: payload})
}

// MarshalJSON emits the envelope wire form with the payload verbatim.
func (t *Task) MarshalJSON() ([]byte, error) { return t.marshal(false) }

// UnmarshalJSON parses the envelope wire form (see Parse).
func (t *Task) UnmarshalJSON(data []byte) error {
	parsed, err := Parse(data)
	if err != nil {
		return err
	}
	*t = *parsed
	return nil
}

// MarshalCanonical returns the envelope's canonical bytes: the kind plus
// the kind payload in its own canonical form (ProblemSpec, codesign.Spec,
// and validate.Spec all re-derive through their Build/resolve paths), so
// every spelling of the same task — "ppc" vs "perf-per-cost", implied vs
// explicit defaults — maps to identical bytes.
//
//libra:allow speccontract Task is the kind envelope, not a spec type: canonical form, parsing (Parse), and cloning all delegate to the per-kind specs
func (t *Task) MarshalCanonical() ([]byte, error) { return t.marshal(true) }

// Fingerprint digests the canonical envelope — a stable identity for
// caching, idempotency, and job bookkeeping. Two tasks fingerprint
// identically exactly when they request the same computation. It fails
// (wrapping core.ErrBadSpec) for tasks whose spec cannot build, so
// services can pre-validate a submission cheaply.
func (t *Task) Fingerprint() (string, error) {
	fp, err := core.Digest(t.MarshalCanonical())
	if err != nil && !errors.Is(err, core.ErrBadSpec) {
		err = fmt.Errorf("%w: %w", core.ErrBadSpec, err)
	}
	return fp, err
}

// Run answers the task through the engine — the single entry every
// service surface (HTTP v1 and v2, async jobs, the CLI, remote clients)
// funnels through — by running the kind's registry row. The returned
// payload is exactly what the matching /v1 endpoint serializes, and
// DecodeResult turns that JSON back into the same type:
//
//	optimize → core.EngineResult
//	evaluate → core.EngineResult
//	sweep    → *SweepResult
//	frontier → *frontier.Result
//	codesign → *codesign.Report
//	validate → *validate.Report
//	cluster  → *cluster.Report
//
// Batch kinds report per-point progress through the context's
// core.WithProgress hook as they land.
//
// Run is also the task-level instrument point: it times the dispatch
// into the per-kind duration histogram and outcome counter, and marks
// the whole dispatch as a "task:<kind>" span when the context carries a
// span recorder (the async job manager's workers do).
func Run(ctx context.Context, engine *core.Engine, t *Task) (any, error) {
	kind := "invalid"
	if t != nil && t.Kind.Valid() {
		kind = string(t.Kind)
	}
	end := telemetry.StartSpan(ctx, "task:"+kind)
	start := time.Now()
	result, err := dispatch(ctx, engine, t)
	end()
	telemetry.TaskDuration.With(kind).Observe(time.Since(start).Seconds())
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	telemetry.TaskRuns.With(kind, outcome).Inc()
	return result, err
}

// dispatch is the uninstrumented registry lookup behind Run.
func dispatch(ctx context.Context, engine *core.Engine, t *Task) (any, error) {
	if engine == nil {
		return nil, fmt.Errorf("task: nil engine")
	}
	if t == nil {
		return nil, fmt.Errorf("%w: nil task", core.ErrBadSpec)
	}
	d, err := lookup(t.Kind)
	if err != nil {
		return nil, err
	}
	return d.runSpec(ctx, engine, t.Spec)
}

// DecodeResult decodes a kind's JSON result — what /v1/<kind>, /v2/tasks
// and a done job serve — into the same dynamic type Run returns for that
// kind (see Run), so remote and in-process answers render alike.
func DecodeResult(kind Kind, data []byte) (any, error) {
	d, err := lookup(kind)
	if err != nil {
		return nil, err
	}
	return d.decodeResult(data)
}
