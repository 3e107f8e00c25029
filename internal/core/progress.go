package core

import (
	"context"
	"sync"

	"libra/internal/telemetry"
)

// Progress is one observation of a batch fan-out: how many of a stage's
// points have landed so far, out of how many total, and how many of the
// landed points were answered from the Engine's fingerprint cache. Batch
// subsystems (Engine.Sweep, frontier/codesign/validate Compute) emit a
// Progress per completed point instead of going dark until return — the
// observability substrate the async job API streams to clients.
type Progress struct {
	// Stage names the fan-out ("sweep", "frontier", "codesign",
	// "codesign-frontier", "validate", "cluster", "cluster-frontier"). A
	// computation may emit several stages; Done/Total/CacheHits are per
	// stage.
	Stage string `json:"stage"`
	// Done counts landed points (including per-point failures — a failed
	// point is still finished work); Total is the stage size, fixed at
	// enumeration time.
	Done  int `json:"done"`
	Total int `json:"total"`
	// CacheHits counts landed points served from the result cache.
	CacheHits int `json:"cache_hits"`
}

// ProgressFunc observes batch progress. Implementations must be safe for
// concurrent use: independent stages report concurrently (each stage's
// own observations are serialized and monotonically non-decreasing in
// Done). Keep it fast — trackers hold a lock across the call to preserve
// per-stage ordering.
type ProgressFunc func(Progress)

type (
	progressCtxKey struct{}
	stageCtxKey    struct{}
)

// WithProgress returns a context whose batch fan-outs report through fn.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return context.WithValue(ctx, progressCtxKey{}, fn)
}

// WithStage returns a context whose batch fan-outs land their points on
// t's stage instead of opening their own: a study that composes another
// (a frontier column inside codesign or cluster) passes its tracker down
// so each nested point ticks the study's stage, and counts once in the
// per-stage sweep counters, as it finishes.
func WithStage(ctx context.Context, t *ProgressTracker) context.Context {
	return context.WithValue(ctx, stageCtxKey{}, t)
}

// ProgressTracker serializes one stage's observations: Tick as points
// land and every waiter sees Done grow monotonically. The zero-value
// (and any tracker built from a hook-less context) is a no-op, so call
// sites never branch.
type ProgressTracker struct {
	fn    ProgressFunc
	stage string
	total int

	mu   sync.Mutex
	done int
	hits int
}

// NewProgressTracker builds the stage tracker from the context's hook and
// immediately reports the 0/total observation (when a hook is present),
// so watchers learn the stage size before the first point lands. Inside
// WithStage it returns the enclosing tracker instead: the caller's points
// belong to that stage, which already counted them in its total.
func NewProgressTracker(ctx context.Context, stage string, total int) *ProgressTracker {
	if t, _ := ctx.Value(stageCtxKey{}).(*ProgressTracker); t != nil {
		return t
	}
	fn, _ := ctx.Value(progressCtxKey{}).(ProgressFunc)
	t := &ProgressTracker{fn: fn, stage: stage, total: total}
	if t.fn != nil {
		t.fn(Progress{Stage: stage, Total: total})
	}
	return t
}

// Tick records one landed point.
func (t *ProgressTracker) Tick(cached bool) {
	hits := 0
	if cached {
		hits = 1
	}
	t.TickN(1, hits)
}

// TickN records n landed points, hits of them cache-served. The hook runs
// under the tracker lock: per-stage observations are totally ordered and
// Done never regresses from a watcher's point of view. The per-stage
// sweep counters are bumped whether or not a hook is installed —
// /metrics sees every fan-out, not just the watched ones.
func (t *ProgressTracker) TickN(n, hits int) {
	if t == nil || t.stage == "" {
		return
	}
	telemetry.SweepPoints.With(t.stage).Add(uint64(n))
	if hits > 0 {
		telemetry.SweepCacheHits.With(t.stage).Add(uint64(hits))
	}
	if t.fn == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done += n
	t.hits += hits
	t.fn(Progress{Stage: t.stage, Done: t.done, Total: t.total, CacheHits: t.hits})
}
