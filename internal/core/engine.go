package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"time"

	"libra/internal/telemetry"
	"libra/internal/topology"
)

// ErrBadSpec marks client-side errors — a spec that fails to build or
// validate — so service layers can distinguish caller mistakes (HTTP 400)
// from solver failures (HTTP 500).
var ErrBadSpec = errors.New("core: invalid problem spec")

// MaxPoints bounds the solves one batch request (a sweep, frontier,
// co-design or cluster study) or the scenarios one validation run may
// expand to. Each point allocates state and a goroutine up front, so an
// unbounded request from a small JSON body could exhaust memory before
// the worker pool throttles it.
const MaxPoints = 4096

// EngineConfig tunes the service layer. Zero values select defaults.
type EngineConfig struct {
	// Workers bounds concurrent solves (default GOMAXPROCS). Each solve's
	// multistart additionally parallelizes internally (opt.Options.Workers,
	// also GOMAXPROCS by default), so a saturated engine oversubscribes
	// the CPU; the Go scheduler time-slices this fine, and an idle engine
	// still finishes a lone request on every core. Deliberately not
	// spec-controllable — worker counts never change results.
	Workers int
	// CacheSize bounds the LRU result cache in entries (default 512;
	// negative disables caching).
	CacheSize int
	// Store is the optional second cache tier, consulted on LRU miss and
	// written behind fresh solves (memory → disk → solve). Nil keeps the
	// engine memory-only with zero overhead on the solve path. Results
	// are persisted on insert, so an LRU eviction loses nothing the
	// store doesn't already hold.
	Store ResultStore
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 512
	}
	return c
}

// Engine is LIBRA's concurrent service layer: it optimizes and evaluates
// ProblemSpecs under a bounded worker pool, deduplicates identical
// in-flight requests (single-flight), and memoizes results in an LRU
// cache keyed by the spec's canonical fingerprint. An Engine is safe for
// concurrent use; create one per process and share it.
type Engine struct {
	cfg   EngineConfig
	sem   chan struct{}
	store ResultStore

	mu        sync.Mutex
	cache     *lruCache
	inflight  map[string]*flight
	hits      uint64
	misses    uint64
	coalesces uint64
	evictions uint64

	baseCtx context.Context
	stop    context.CancelFunc
}

// flight is one in-progress computation shared by every caller requesting
// the same key. The work is canceled once the last waiter walks away.
type flight struct {
	done chan struct{}
	res  cacheEntry
	err  error
	// cached marks a flight answered by the disk tier rather than a
	// fresh computation; every waiter reports it.
	cached  bool
	waiters int
	cancel  context.CancelFunc
}

// cacheEntry is what the LRU stores: an arbitrary immutable payload plus
// the timing metadata the service layer reports.
type cacheEntry struct {
	value     any
	elapsedMS float64
}

// NewEngine builds an Engine; Close releases it.
func NewEngine(cfg EngineConfig) *Engine {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	e := &Engine{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.Workers),
		store:    cfg.Store,
		inflight: map[string]*flight{},
		baseCtx:  ctx,
		stop:     stop,
	}
	if cfg.CacheSize > 0 {
		e.cache = newLRUCache(cfg.CacheSize)
	}
	return e
}

// Close cancels every in-flight solve and rejects future work.
func (e *Engine) Close() { e.stop() }

// EngineResult is a service-layer answer: the evaluated design point plus
// cache/timing metadata.
type EngineResult struct {
	Result      Result  `json:"result"`
	Fingerprint string  `json:"fingerprint"`
	Cached      bool    `json:"cached"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// EngineStats reports cache effectiveness and current load.
type EngineStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Coalesces counts requests that joined an identical in-flight
	// computation instead of starting their own (single-flight dedup).
	Coalesces uint64 `json:"coalesces"`
	// Evictions counts cache entries displaced by the LRU capacity bound.
	Evictions    uint64 `json:"evictions"`
	CacheEntries int    `json:"cache_entries"`
	InFlight     int    `json:"in_flight"`
	Workers      int    `json:"workers"`
	// Disk reports the persistent second tier; nil when the engine runs
	// memory-only.
	Disk *DiskStats `json:"disk,omitempty"`
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := EngineStats{
		Hits: e.hits, Misses: e.misses,
		Coalesces: e.coalesces, Evictions: e.evictions,
		InFlight: len(e.inflight), Workers: e.cfg.Workers,
	}
	if e.cache != nil {
		s.CacheEntries = e.cache.len()
	}
	if e.store != nil {
		ds := e.store.Stats()
		s.Disk = &ds
	}
	return s
}

// Ready reports whether the engine accepts work (nil) or has been closed.
func (e *Engine) Ready() error {
	if err := e.baseCtx.Err(); err != nil {
		return fmt.Errorf("core: engine closed: %w", err)
	}
	return nil
}

// Optimize solves the spec (or returns the memoized result), honoring ctx
// for cancellation while waiting and while solving: a column of one
// point at the spec's budget, solved cold.
func (e *Engine) Optimize(ctx context.Context, spec *ProblemSpec) (EngineResult, error) {
	c, err := e.Column(spec)
	if err != nil {
		return EngineResult{}, err
	}
	return c.Optimize(ctx, spec.BudgetGBps, nil)
}

// Evaluate prices an explicit bandwidth configuration for the spec: a
// column of one price.
func (e *Engine) Evaluate(ctx context.Context, spec *ProblemSpec, bw topology.BWConfig) (EngineResult, error) {
	c, err := e.Column(spec)
	if err != nil {
		return EngineResult{}, err
	}
	return c.Evaluate(ctx, bw)
}

// DoCodec runs an arbitrary keyed computation under the engine's
// machinery: the bounded worker pool, single-flight deduplication of
// identical concurrent keys, and the LRU result cache (sharing the
// hit/miss accounting Stats reports). The returned value is the
// computation's result — served from cache (cached == true) when the key
// was answered before. Cached values are shared across callers, so
// compute must return an immutable (or never-mutated) value. Subsystems
// with non-Result payloads (internal/validate's conformance scenarios)
// run through here; choose keys that fully determine the computation's
// inputs.
//
// When the engine has a disk store, the value is spilled through codec
// on insert and revived on a memory miss (memory → disk → solve, still
// single-flight — concurrent callers of one key share a single disk
// read). A nil codec keeps the key memory-only.
func (e *Engine) DoCodec(ctx context.Context, key string, codec Codec, compute func(context.Context) (any, error)) (value any, cached bool, err error) {
	entry, cached, err := e.doShared(ctx, key, codec, compute)
	if err != nil {
		return nil, false, err
	}
	return entry.value, cached, nil
}

// doResult adapts the generic machinery to the typed Result operations.
func (e *Engine) doResult(ctx context.Context, key, fp string, solve func(context.Context) (Result, error)) (EngineResult, error) {
	entry, cached, err := e.doShared(ctx, key, resultCodec, func(ctx context.Context) (any, error) {
		return solve(ctx)
	})
	if err != nil {
		return EngineResult{}, err
	}
	return EngineResult{
		Result:      entry.value.(Result),
		Fingerprint: fp,
		Cached:      cached,
		ElapsedMS:   entry.elapsedMS,
	}, nil
}

// opOf maps a computation key to its metric/span label. Keys are
// prefixed by the operation that minted them; the returned strings are
// constants so labeling stays allocation-free on the solve path.
func opOf(key string) (op, span string) {
	switch {
	case strings.HasPrefix(key, "optimize|"):
		return "optimize", "engine:optimize"
	case strings.HasPrefix(key, "evaluate|"):
		return "evaluate", "engine:evaluate"
	case strings.HasPrefix(key, "validate|"):
		return "validate", "engine:validate"
	}
	return "other", "engine:do"
}

// doShared runs one cached, single-flighted, worker-bounded computation:
// memory LRU, then (when a store and codec are present) the disk tier,
// then the computation itself. Neither tier expires entries: the answer
// epoch in every disk key retires answers across code changes, and an
// in-process LRU entry was computed by the code that is running.
func (e *Engine) doShared(ctx context.Context, key string, codec Codec, compute func(context.Context) (any, error)) (cacheEntry, bool, error) {
	if err := e.baseCtx.Err(); err != nil {
		return cacheEntry{}, false, fmt.Errorf("core: engine closed: %w", err)
	}
	op, span := opOf(key)
	end := telemetry.StartSpan(ctx, span)
	defer end()
	e.mu.Lock()
	if e.cache != nil {
		if r, ok := e.cache.get(key); ok {
			e.hits++
			e.mu.Unlock()
			telemetry.EngineCacheHits.Inc()
			return r, true, nil
		}
	}
	if f, ok := e.inflight[key]; ok {
		f.waiters++
		e.coalesces++
		e.mu.Unlock()
		telemetry.EngineCoalesced.Inc()
		return e.wait(ctx, f)
	}
	e.misses++
	solveCtx, cancel := context.WithCancel(e.baseCtx)
	f := &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
	e.inflight[key] = f
	e.mu.Unlock()
	telemetry.EngineCacheMisses.Inc()
	telemetry.EngineInFlight.Inc()

	go func() {
		defer cancel()
		var res cacheEntry
		var err error
		var fromDisk bool
		// Disk tier: one read per flight, before a worker slot is taken —
		// a disk hit never occupies the solver pool. A payload that fails
		// to decode (schema drift, bit rot past the CRC) falls through to
		// a fresh solve rather than surfacing an error.
		if e.store != nil && codec != nil {
			if data, elapsedMS, ok := e.store.Get(op, AnswerEpoch+key); ok {
				if v, derr := codec.Decode(data); derr == nil {
					res = cacheEntry{value: v, elapsedMS: elapsedMS}
					fromDisk = true
				}
			}
		}
		if !fromDisk {
			select {
			case e.sem <- struct{}{}:
				telemetry.EngineActiveWorkers.Inc()
				start := time.Now()
				var v any
				v, err = compute(solveCtx)
				elapsed := time.Since(start)
				<-e.sem
				telemetry.EngineActiveWorkers.Dec()
				telemetry.EngineSolveDuration.With(op).Observe(elapsed.Seconds())
				res = cacheEntry{value: v, elapsedMS: float64(elapsed) / float64(time.Millisecond)}
			case <-solveCtx.Done():
				err = solveCtx.Err()
			}
		}
		// Spill fresh results before the flight is released: once the key
		// leaves the inflight map, the disk tier must already hold the
		// answer, or a racing request that also misses the LRU would
		// recompute it. The write is one unsynced append — microseconds
		// against a solve — and absent a store it costs nothing. A value
		// that fails to encode never reaches the store, so it is not a
		// store put error: it is logged and served unspilled.
		if err == nil && !fromDisk && e.store != nil && codec != nil {
			if data, eerr := codec.Encode(res.value); eerr == nil {
				_ = e.store.Put(op, AnswerEpoch+key, data, res.elapsedMS)
			} else {
				slog.Error("engine: result not spilled: encode failed", "op", op, "key", key, "error", eerr)
			}
		}
		var added bool
		var evicted int
		e.mu.Lock()
		delete(e.inflight, key)
		if err == nil && e.cache != nil {
			added, evicted = e.cache.add(key, res)
			e.evictions += uint64(evicted)
		}
		e.mu.Unlock()
		telemetry.EngineInFlight.Dec()
		if added {
			telemetry.EngineCacheEntries.Inc()
		}
		if evicted > 0 {
			telemetry.EngineCacheEvictions.Add(uint64(evicted))
			telemetry.EngineCacheEntries.Add(int64(-evicted))
		}
		f.res, f.err, f.cached = res, err, fromDisk
		close(f.done)
	}()
	return e.wait(ctx, f)
}

// wait blocks on a shared flight under the caller's context; the last
// waiter to abandon a flight cancels its computation. Joined flights
// report cached == false unless the flight was answered by the disk
// tier: a fresh answer was computed for this request wave, not served
// from a cache.
func (e *Engine) wait(ctx context.Context, f *flight) (cacheEntry, bool, error) {
	select {
	case <-f.done:
		return f.res, f.cached, f.err
	case <-ctx.Done():
		e.mu.Lock()
		f.waiters--
		abandon := f.waiters <= 0
		e.mu.Unlock()
		if abandon {
			f.cancel()
		}
		return cacheEntry{}, false, ctx.Err()
	}
}

// BatchResult is the outcome of one sweep cell; a failed cell carries
// its error message in place so one bad spec does not sink the sweep,
// and reads the same in process and decoded from JSON.
type BatchResult struct {
	Index int `json:"index"`
	EngineResult
	Error string `json:"error,omitempty"`
}

// SweepRequest axes multiply against a base spec: every listed topology ×
// budget × objective becomes one optimization. An empty axis keeps the
// base spec's value.
type SweepRequest struct {
	Topologies []string  `json:"topologies,omitempty"`
	Budgets    []float64 `json:"budgets,omitempty"`
	Objectives []string  `json:"objectives,omitempty"`
}

// SweepPoint is one sweep cell: the derived coordinates plus the batch
// outcome.
type SweepPoint struct {
	Topology   string  `json:"topology"`
	BudgetGBps float64 `json:"budget_gbps"`
	Objective  string  `json:"objective,omitempty"`
	BatchResult
}

// Sweep explodes the request axes against the base spec and optimizes
// every cell concurrently — the paper's §VI design-space sweeps as one
// call. Point failures are reported per cell. A context progress hook
// (WithProgress) observes cells as they land under the "sweep" stage.
func (e *Engine) Sweep(ctx context.Context, base *ProblemSpec, req SweepRequest) ([]SweepPoint, error) {
	if base == nil {
		return nil, fmt.Errorf("core: sweep needs a base spec")
	}
	topos := req.Topologies
	if len(topos) == 0 {
		topos = []string{base.Topology}
	}
	budgets := req.Budgets
	if len(budgets) == 0 {
		budgets = []float64{base.BudgetGBps}
	}
	objectives := req.Objectives
	if len(objectives) == 0 {
		objectives = []string{base.Objective}
	}
	if n := len(topos) * len(budgets) * len(objectives); n > MaxPoints {
		return nil, fmt.Errorf("%w: sweep of %d topologies × %d budgets × %d objectives = %d points exceeds the %d-point limit",
			ErrBadSpec, len(topos), len(budgets), len(objectives), n, MaxPoints)
	}
	var points []SweepPoint
	var specs []*ProblemSpec
	for _, t := range topos {
		for _, b := range budgets {
			for _, o := range objectives {
				s := base.Clone()
				s.Topology = t
				s.BudgetGBps = b
				s.Objective = o
				specs = append(specs, s)
				points = append(points, SweepPoint{Topology: t, BudgetGBps: b, Objective: o})
			}
		}
	}
	tracker := NewProgressTracker(ctx, "sweep", len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func(pt *SweepPoint, i int, s *ProblemSpec) {
			defer wg.Done()
			r, err := e.Optimize(ctx, s)
			pt.BatchResult = BatchResult{Index: i, EngineResult: r}
			if err != nil {
				pt.Error = err.Error()
			}
			tracker.Tick(err == nil && r.Cached)
		}(&points[i], i, s)
	}
	wg.Wait()
	return points, ctx.Err()
}

// ---- LRU cache ----

type lruEntry struct {
	key string
	res cacheEntry
}

// lruCache is a minimal LRU of cache entries; callers synchronize.
type lruCache struct {
	cap   int
	order *list.List // front = most recent
	items map[string]*list.Element
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, order: list.New(), items: map[string]*list.Element{}}
}

func (c *lruCache) len() int { return c.order.Len() }

func (c *lruCache) get(key string) (cacheEntry, bool) {
	el, ok := c.items[key]
	if !ok {
		return cacheEntry{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

// add inserts or refreshes a key, reporting whether a new entry was
// created and how many entries the capacity bound displaced — callers
// feed both into the cache gauges.
func (c *lruCache) add(key string, res cacheEntry) (added bool, evicted int) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).res = res
		c.order.MoveToFront(el)
		return false, 0
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, res: res})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*lruEntry).key)
		evicted++
	}
	return true, evicted
}
