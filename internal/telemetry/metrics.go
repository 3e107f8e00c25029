// Package telemetry is LIBRA's zero-dependency observability substrate:
// a metrics registry (counters, gauges, histograms, labeled vectors) with
// Prometheus text-format exposition, a structured logger factory over
// log/slog, and lightweight context-carried tracing (request/trace IDs
// plus timed spans recorded onto the async job event log).
//
// The package-level metric catalog (catalog.go) is the one place every
// subsystem's instrument points live; hot solver paths touch only
// unlabeled atomic counters and histograms — no locks beyond an RWMutex
// read for label lookups, no allocation per observation.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A metric is one named family a Registry exposes. Families write their
// own sample lines; the registry writes the surrounding HELP/TYPE header.
type metric interface {
	name() string
	help() string
	typ() string
	// writeSamples emits the family's sample lines in Prometheus text
	// format.
	writeSamples(w io.Writer)
}

// Registry holds a set of metric families and renders them in Prometheus
// text exposition format. The zero value is not usable; call NewRegistry.
// Registration is expected at package init time (see catalog.go); a
// duplicate name panics, exactly like expvar.Publish.
type Registry struct {
	mu      sync.RWMutex
	metrics []metric
	byName  map[string]struct{}
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]struct{}{}}
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name()]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", m.name()))
	}
	r.byName[m.name()] = struct{}{}
	r.metrics = append(r.metrics, m)
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	metrics := append([]metric(nil), r.metrics...)
	r.mu.RUnlock()
	for _, m := range metrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name(), m.help(), m.name(), m.typ())
		m.writeSamples(w)
	}
}

// Handler serves the registry in Prometheus text format; mount it at
// GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// ---- Counter ----

// Counter is a monotonically increasing uint64. All methods are
// allocation-free and safe for concurrent use.
type Counter struct {
	meta
	v atomic.Uint64
}

// NewCounter registers a counter on the registry.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{meta: meta{n: name, h: help}}
	r.register(c)
	return c
}

// Inc adds one.
//
//libra:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//libra:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) typ() string { return "counter" }

func (c *Counter) writeSamples(w io.Writer) {
	writeScalar(w, c.n, "", float64(c.v.Load()))
}

// ---- Gauge ----

// Gauge is an int64 that can go up and down (in-flight requests, cache
// entries, live jobs). Deltas from independent owners aggregate, so
// several engines in one process sum into one honest process-wide value.
type Gauge struct {
	meta
	v atomic.Int64
}

// NewGauge registers a gauge on the registry.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{meta: meta{n: name, h: help}}
	r.register(g)
	return g
}

// Inc adds one. Dec subtracts one. Add adds delta. Set overwrites.
//
//libra:hotpath
func (g *Gauge) Inc()            { g.v.Add(1) }
func (g *Gauge) Dec()            { g.v.Add(-1) }
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }
func (g *Gauge) Set(v int64)     { g.v.Store(v) }

// Value reads the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) typ() string { return "gauge" }

func (g *Gauge) writeSamples(w io.Writer) {
	writeScalar(w, g.n, "", float64(g.v.Load()))
}

// ---- GaugeFunc ----

// GaugeFunc is a gauge whose value is pulled from a callback at scrape
// time — for state someone else already owns (goroutine counts, store
// sizes).
type GaugeFunc struct {
	meta
	fn func() float64
}

// NewGaugeFunc registers a callback gauge on the registry. fn must be
// safe for concurrent use.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{meta: meta{n: name, h: help}, fn: fn}
	r.register(g)
	return g
}

func (g *GaugeFunc) typ() string { return "gauge" }

func (g *GaugeFunc) writeSamples(w io.Writer) {
	writeScalar(w, g.n, "", g.fn())
}

// CounterFunc is a counter whose value is pulled from a callback at
// scrape time — for a monotone total someone else already keeps (the
// kernel's CPU-time accounting).
type CounterFunc struct{ GaugeFunc }

// NewCounterFunc registers a callback counter on the registry. fn must be
// safe for concurrent use and never decrease.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) *CounterFunc {
	c := &CounterFunc{GaugeFunc{meta: meta{n: name, h: help}, fn: fn}}
	r.register(c)
	return c
}

func (c *CounterFunc) typ() string { return "counter" }

// ---- Histogram ----

// DefBuckets are solver-latency-appropriate histogram bounds in seconds:
// sub-millisecond cache hits through multi-minute co-design studies.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120,
}

// Histogram observes float64 values (seconds by convention) into fixed
// cumulative buckets. Observe is allocation-free: a binary search plus
// three atomic updates.
type Histogram struct {
	meta
	bounds []float64 // sorted upper bounds; +Inf is implicit
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
}

// NewHistogram registers a histogram with the given upper bounds (nil
// selects DefBuckets). Bounds must be sorted ascending.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(name, help, bounds)
	r.register(h)
	return h
}

func newHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
		}
	}
	return &Histogram{
		meta:   meta{n: name, h: help},
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
//
//libra:hotpath
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound ≥ v; the last slot is +Inf.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reads the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

func (h *Histogram) typ() string { return "histogram" }

func (h *Histogram) writeSamples(w io.Writer) {
	h.writeLabeled(w, "")
}

// writeLabeled emits the histogram's sample lines with extra pre-rendered
// labels (`k="v"` pairs, comma-joined) merged into each line.
func (h *Histogram) writeLabeled(w io.Writer, labels string) {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		writeScalar(w, h.n+"_bucket", joinLabels(labels, `le="`+formatFloat(b)+`"`), float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeScalar(w, h.n+"_bucket", joinLabels(labels, `le="+Inf"`), float64(cum))
	writeScalar(w, h.n+"_sum", labels, h.sum.Load())
	writeScalar(w, h.n+"_count", labels, float64(cum))
}

// ---- Labeled vectors ----

// CounterVec is a family of counters keyed by label values (bounded
// cardinality is the caller's responsibility — use route patterns and
// enum-like values, never raw request paths).
type CounterVec struct {
	meta
	vec[*Counter]
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{meta: meta{n: name, h: help}}
	v.labels = labels
	v.make = func() *Counter { return &Counter{} }
	v.init()
	r.register(v)
	return v
}

// With returns the counter for the given label values, creating it on
// first use. Lookup of an existing child is allocation-free for
// single-label vectors.
func (v *CounterVec) With(values ...string) *Counter { return v.child(values) }

func (v *CounterVec) typ() string { return "counter" }

func (v *CounterVec) writeSamples(w io.Writer) {
	v.each(func(labels string, c *Counter) {
		writeScalar(w, v.n, labels, float64(c.Value()))
	})
}

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct {
	meta
	vec[*Gauge]
}

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{meta: meta{n: name, h: help}}
	v.labels = labels
	v.make = func() *Gauge { return &Gauge{} }
	v.init()
	r.register(v)
	return v
}

// With returns the gauge for the given label values, creating it on first
// use.
func (v *GaugeVec) With(values ...string) *Gauge { return v.child(values) }

func (v *GaugeVec) typ() string { return "gauge" }

func (v *GaugeVec) writeSamples(w io.Writer) {
	v.each(func(labels string, g *Gauge) {
		writeScalar(w, v.n, labels, float64(g.Value()))
	})
}

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct {
	meta
	bounds []float64
	vec[*Histogram]
}

// NewHistogramVec registers a labeled histogram family (nil bounds select
// DefBuckets).
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{meta: meta{n: name, h: help}, bounds: bounds}
	v.labels = labels
	v.make = func() *Histogram { return newHistogram(name, help, bounds) }
	v.init()
	r.register(v)
	return v
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram { return v.child(values) }

func (v *HistogramVec) typ() string { return "histogram" }

func (v *HistogramVec) writeSamples(w io.Writer) {
	v.each(func(labels string, h *Histogram) {
		h.writeLabeled(w, labels)
	})
}

// ---- vec plumbing ----

// vec is the shared child store of the labeled families: an RWMutex-read
// lookup by joined label values, creating children under the write lock
// on first use.
type vec[T any] struct {
	labels   []string
	make     func() T
	mu       sync.RWMutex
	children map[string]T
}

func (v *vec[T]) init() { v.children = map[string]T{} }

// key joins label values; single-label vectors use the value itself, so
// the hot lookup never allocates.
func (v *vec[T]) key(values []string) string {
	if len(values) == 1 {
		return values[0]
	}
	return strings.Join(values, "\xff")
}

func (v *vec[T]) child(values []string) T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: %d label values for %d labels %v", len(values), len(v.labels), v.labels))
	}
	k := v.key(values)
	v.mu.RLock()
	c, ok := v.children[k]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.children[k]; ok {
		return c
	}
	c = v.make()
	// The map key must not alias caller-retained backing arrays; the
	// joined form already copies, single values are immutable strings.
	v.children[k] = c
	return c
}

// each visits children with their rendered label pairs, sorted by key for
// deterministic exposition.
func (v *vec[T]) each(fn func(labels string, child T)) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]T, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.RUnlock()
	for i, k := range keys {
		fn(v.renderLabels(k), children[i])
	}
}

func (v *vec[T]) renderLabels(key string) string {
	values := []string{key}
	if len(v.labels) > 1 {
		values = strings.Split(key, "\xff")
	}
	parts := make([]string, len(values))
	for i, val := range values {
		parts[i] = v.labels[i] + `="` + escapeLabel(val) + `"`
	}
	return strings.Join(parts, ",")
}

// ---- shared helpers ----

// meta carries a family's name and help text.
type meta struct{ n, h string }

func (m meta) name() string { return m.n }
func (m meta) help() string { return m.h }

// atomicFloat is a float64 updated by CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Add(v float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (a *atomicFloat) Load() float64 { return math.Float64frombits(a.bits.Load()) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// writeScalar emits one sample line.
func writeScalar(w io.Writer, name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(v))
	} else {
		fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatFloat(v))
	}
}
