package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"libra/internal/core"
	"libra/internal/store"
	"libra/internal/task"
	"libra/internal/telemetry"
)

// The traced run replays a plan in-process, through the same handler
// stack libra-serve wires (server.New over an engine, job manager and
// store), and attributes each request's time to the layers:
//
//   - server: the handler wrapper's span minus the task and replica times
//     below it (body read, ETag check, indented encode, middleware, log);
//   - task: task.Parse / task.FromKindPayload and (*Task).Fingerprint,
//     timed as replicas on the same body;
//   - core: the "task:<kind>" span minus the opt and store time inside it,
//     plus ProblemSpec.Build + Problem.Fingerprint per cell (replica) and
//     the codec decode of each store hit (replica);
//   - store: a timing decorator around store.Open's *Store;
//   - opt: the engine solve histogram and libra_solver_* counters;
//   - frontier and jobs: the job's span events and its timestamps.
//
// Spans of the first maxTracedRequests requests stay in memory during the
// replay and are written out at the end
// (.bench_build/traces/<workload>-seed<n>.jsonl), with a per-layer table
// of where a request's time goes (.md next to it).

// storeEvent is one call through the timing store decorator.
type storeEvent struct {
	op         string // get | put
	start, end time.Time
	hit        bool
	data       []byte // copy of a hit's payload, for the decode replica
}

type handlerSpan struct {
	path       string
	start, end time.Time
}

// spanRecord is one span of the trace file.
type spanRecord struct {
	Req     string  `json:"req"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	// Replica marks a timing taken by calling the layer's public function
	// again on the same input, next to (not inside) the request.
	Replica bool `json:"replica,omitempty"`
}

// layerTimes is time attributed to each layer, summed over requests.
type layerTimes struct {
	server, task, core, store, opt, frontier, jobs, transport time.Duration
}

// tracer collects one traced replay.
type tracer struct {
	t0 time.Time
	p  *plan

	mu       sync.Mutex
	handlers map[string][]handlerSpan
	spans    map[string][]telemetry.Span
	store    []storeEvent
	openDur  time.Duration
	// engine solve histogram at the previous op
	solveSum   float64
	solveCount uint64
	records    []spanRecord
	latency    []time.Duration

	layers                                   layerTimes
	requests, notModified, respBytes         int
	cells, hitCells, decoded                 int
	parse, fingerprint, prepare, hit, decode time.Duration
	gets, getHits, puts                      int
	getTime, putTime                         time.Duration
	jobs, points                             int
	frontierSpan, queue, run, notify         time.Duration
}

func newTracer(p *plan) *tracer {
	return &tracer{t0: time.Now(), p: p, handlers: map[string][]handlerSpan{}, spans: map[string][]telemetry.Span{}}
}

// solveHistogram reads the engine's optimize solve-time histogram.
func solveHistogram() (sum float64, count uint64) {
	h := telemetry.EngineSolveDuration.With("optimize")
	return h.Sum(), h.Count()
}

// wrap records the handler span of every tagged request and installs a
// span recorder on its context, so task.Run and the engine report their
// spans against the request id.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			h.ServeHTTP(w, r)
			return
		}
		ctx := telemetry.WithSpanRecorder(r.Context(), func(sp telemetry.Span) {
			t.mu.Lock()
			t.spans[rid] = append(t.spans[rid], sp)
			t.mu.Unlock()
		})
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(ctx))
		end := time.Now()
		t.mu.Lock()
		t.handlers[rid] = append(t.handlers[rid], handlerSpan{path: r.URL.Path, start: start, end: end})
		t.mu.Unlock()
	})
}

// timedStore is the timing core.ResultStore decorator.
type timedStore struct {
	st *store.Store
	t  *tracer
}

func (s timedStore) Get(kind, key string) ([]byte, float64, bool) {
	start := time.Now()
	data, elapsed, ok := s.st.Get(kind, key)
	ev := storeEvent{op: "get", start: start, end: time.Now(), hit: ok}
	if ok {
		ev.data = append([]byte(nil), data...)
	}
	s.t.mu.Lock()
	s.t.store = append(s.t.store, ev)
	s.t.mu.Unlock()
	return data, elapsed, ok
}

func (s timedStore) Put(kind, key string, data []byte, elapsedMS float64) error {
	start := time.Now()
	err := s.st.Put(kind, key, data, elapsedMS)
	s.t.mu.Lock()
	s.t.store = append(s.t.store, storeEvent{op: "put", start: start, end: time.Now()})
	s.t.mu.Unlock()
	return err
}

func (s timedStore) Stats() core.DiskStats { return s.st.Stats() }

func (t *tracer) wrapStore(st *store.Store, open time.Duration) core.ResultStore {
	t.mu.Lock()
	t.openDur = open
	t.mu.Unlock()
	return timedStore{st: st, t: t}
}

// reqID tags op i of a loop; the first op of the timed phase also drops
// what fill and set-up left in the tracer.
func (t *tracer) reqID(loop, i int) string {
	if loop == 0 && i == 0 {
		t.mu.Lock()
		t.store = nil
		t.solveSum, t.solveCount = solveHistogram()
		t.mu.Unlock()
	}
	return fmt.Sprintf("t%d-%d", loop, i)
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

// maxTracedRequests bounds the requests whose spans the trace file keeps
// (a full hot-sweeps replay would be ~60 MB of spans); the per-layer
// metrics still aggregate every request.
const maxTracedRequests = 256

func (t *tracer) span(req, name, parent string, start, end time.Time, replica bool) {
	if t.requests > maxTracedRequests {
		return
	}
	t.records = append(t.records, spanRecord{Req: req, Name: name, Parent: parent, StartUS: t.us(start), EndUS: t.us(end), Replica: replica})
}

// timeIt runs f and returns its start, end and error.
func timeIt(f func() error) (time.Time, time.Time, error) {
	start := time.Now()
	err := f()
	return start, time.Now(), err
}

// after attributes one finished op. It runs between ops, so replica
// timings never overlap the request they describe.
func (t *tracer) after(loop, i int, o *op, latency time.Duration, body []byte, jt *jobTiming) {
	rid := fmt.Sprintf("t%d-%d", loop, i)
	// Replicas of the task layer: the parse and fingerprint the handler
	// ran on this body.
	var parsed *task.Task
	pStart, pEnd, _ := timeIt(func() (err error) {
		if o.path == "/v1/optimize" {
			parsed, err = task.FromKindPayload(task.KindOptimize, o.body)
		} else {
			parsed, err = task.Parse(o.body)
		}
		return err
	})
	fStart, fEnd, _ := timeIt(func() error { _, err := parsed.Fingerprint(); return err })
	// Replica of the engine's per-cell prepare.
	var cellSpecs []*core.ProblemSpec
	if body != nil {
		for _, c := range o.cells {
			cellSpecs = append(cellSpecs, t.p.cells[c].spec)
		}
		if jt != nil {
			budgets, _ := o.job.req.BudgetAxis()
			for _, b := range budgets {
				s := o.job.base.Clone()
				s.BudgetGBps = b
				cellSpecs = append(cellSpecs, s)
			}
		}
	}
	prStart, prEnd, _ := timeIt(func() error {
		for _, s := range cellSpecs {
			pr, err := s.Build()
			if err != nil {
				return err
			}
			if _, err := pr.Fingerprint(); err != nil {
				return err
			}
		}
		return nil
	})

	t.mu.Lock()
	defer t.mu.Unlock()
	hs := t.handlers[rid]
	sp := t.spans[rid]
	delete(t.handlers, rid)
	delete(t.spans, rid)
	parse, fp, prepare := pEnd.Sub(pStart), fEnd.Sub(fStart), prEnd.Sub(prStart)
	t.requests++
	t.latency = append(t.latency, latency)
	t.parse += parse
	t.fingerprint += fp
	t.prepare += prepare
	t.cells += len(cellSpecs)
	t.respBytes += len(body)
	if body == nil && jt == nil {
		t.notModified++
	}
	// Parents name the enclosing span; a job's spans hang off "job".
	serverName, taskName := "server "+o.path, "task:"+string(parsed.Kind)
	rootName := ""
	if jt != nil {
		rootName = "job"
	}
	t.span(rid, "task.parse", serverName, pStart, pEnd, true)
	t.span(rid, "task.fingerprint", serverName, fStart, fEnd, true)
	if len(cellSpecs) > 0 {
		t.span(rid, "core.prepare", taskName, prStart, prEnd, true)
	}
	var handler time.Duration
	for _, h := range hs {
		t.span(rid, "server "+h.path, rootName, h.start, h.end, false)
		if !strings.HasSuffix(h.path, "/events") {
			handler += h.end.Sub(h.start)
		}
	}
	var taskSpan, engineSum time.Duration
	var engine []time.Duration
	for _, s := range sp {
		d := time.Duration(s.DurationMS * float64(time.Millisecond))
		parent := taskName
		if strings.HasPrefix(s.Name, "task:") {
			taskSpan += d
			parent = serverName
		} else {
			engine = append(engine, d)
			engineSum += d
		}
		t.span(rid, s.Name, parent, s.Start, s.Start.Add(d), false)
	}
	t.layers.task += parse + fp
	t.layers.server += nonNeg(handler - taskSpan - parse - fp)

	if jt != nil {
		t.afterJob(rid, latency, body, jt, handler, prepare)
		return
	}
	t.layers.transport += nonNeg(latency - handler)
	if body == nil {
		return // a 304 stops at the fingerprint
	}
	// Store calls made while this op ran (ops of a sync plan are
	// sequential), and the codec decode of each hit as a replica.
	var storeTime time.Duration
	gets, getHits := 0, 0
	for _, ev := range t.store {
		d := ev.end.Sub(ev.start)
		storeTime += d
		t.span(rid, "store."+ev.op, "engine:optimize", ev.start, ev.end, false)
		if ev.op == "put" {
			t.puts++
			t.putTime += d
			continue
		}
		gets++
		t.getTime += d
		if ev.hit {
			getHits++
			dStart, dEnd, _ := timeIt(func() error { _, err := core.JSONCodec[core.Result]().Decode(ev.data); return err })
			t.decode += dEnd.Sub(dStart)
			t.decoded++
			t.span(rid, "core.decode", "engine:optimize", dStart, dEnd, true)
		}
	}
	t.store = nil
	t.gets += gets
	t.getHits += getHits
	sum, count := solveHistogram()
	solve := time.Duration((sum - t.solveSum) * float64(time.Second))
	solves := int(count - t.solveCount)
	t.solveSum, t.solveCount = sum, count
	// Cells answered by the LRU are the fastest engine spans: every cell
	// that neither read the store nor solved (a solve follows a store
	// miss when there is a store).
	sort.Slice(engine, func(a, b int) bool { return engine[a] < engine[b] })
	for k := 0; k < len(o.cells)-max(gets, solves) && k < len(engine); k++ {
		t.hit += engine[k]
		t.hitCells++
	}
	// Cells of a sweep run concurrently; scale the summed inner times to
	// the task span's wall time before splitting it.
	f := 1.0
	if inner := engineSum + prepare; inner > taskSpan && inner > 0 {
		f = float64(taskSpan) / float64(inner)
	}
	opt := time.Duration(float64(solve) * f)
	st := time.Duration(float64(storeTime) * f)
	t.layers.opt += opt
	t.layers.store += st
	// Prepare runs inside the task span, so core is the span's remainder.
	t.layers.core += nonNeg(taskSpan - opt - st)
}

// afterJob attributes an async frontier job: submit → terminal event.
func (t *tracer) afterJob(rid string, latency time.Duration, body []byte, jt *jobTiming, handler, prepare time.Duration) {
	var job struct {
		Created  time.Time `json:"created"`
		Started  time.Time `json:"started"`
		Finished time.Time `json:"finished"`
		Result   struct {
			Points []json.RawMessage `json:"points"`
		} `json:"result"`
	}
	_ = json.Unmarshal(body, &job)
	var frontierSpan, engineSum time.Duration
	for _, s := range jt.spans {
		d := time.Duration(s.DurationMS * float64(time.Millisecond))
		switch {
		case s.Name == "task:frontier":
			frontierSpan += d
			t.span(rid, s.Name, "jobs.run", s.Start, s.Start.Add(d), false)
		case strings.HasPrefix(s.Name, "engine:"):
			engineSum += d
			t.span(rid, s.Name, "task:frontier", s.Start, s.Start.Add(d), false)
		}
	}
	queue := job.Started.Sub(job.Created)
	run := job.Finished.Sub(job.Started)
	notify := jt.terminal.Sub(job.Finished)
	t.span(rid, "jobs.queue", "job", job.Created, job.Started, false)
	t.span(rid, "jobs.run", "job", job.Started, job.Finished, false)
	t.span(rid, "jobs.notify", "job", job.Finished, jt.terminal, false)
	t.span(rid, "job", "", jt.submit, jt.terminal, false)
	t.jobs++
	t.points += len(job.Result.Points)
	t.frontierSpan += frontierSpan
	t.queue += queue
	t.run += run
	t.notify += notify
	t.layers.jobs += nonNeg(queue) + nonNeg(notify) + nonNeg(run-frontierSpan)
	t.layers.frontier += nonNeg(frontierSpan - engineSum - prepare)
	// Solve time of concurrent jobs cannot be told apart per job;
	// traceReplay moves the phase total from core to opt.
	t.layers.core += engineSum + prepare
	t.layers.transport += nonNeg(latency - queue - run - notify - handler)
}

func nonNeg(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// layerGroup is a set of per-layer metrics that only a workload reaching
// the layer can measure. A traced run of a workload that bypasses the
// layer measures the group on a short traced replay of its home workload
// (same seed, a few requests), and says so in the trace file.
type layerGroup struct {
	home    string
	metrics []string
	reached func(t *tracer, d func(string) float64) bool
}

var layerGroups = []layerGroup{
	{"hot-sweeps", []string{"core.hit_us_per_cell"},
		func(t *tracer, _ func(string) float64) bool { return t.hitCells > 0 }},
	{"disk-restart", []string{"core.disk_decode_us_per_hit"},
		func(t *tracer, _ func(string) float64) bool { return t.decoded > 0 }},
	{"disk-restart", []string{"store.open_ms", "store.get_us", "store.gets_per_req", "store.hit_ratio"},
		func(t *tracer, _ func(string) float64) bool { return t.gets > 0 }},
	{"cold-solve", []string{"store.put_us", "store.puts_per_req"},
		func(t *tracer, _ func(string) float64) bool { return t.puts > 0 }},
	{"cold-solve", []string{"core.solve_ms_per_solve", "opt.starts_per_solve", "opt.pgd_iters_per_solve", "opt.nm_iters_per_solve", "opt.us_per_iter"},
		func(_ *tracer, d func(string) float64) bool { return d("libra_solver_solves_total") > 0 }},
	{"study-jobs", []string{"opt.warm_cut_ratio"},
		func(_ *tracer, d func(string) float64) bool { return d("libra_solver_warm_solves_total") > 0 }},
	{"study-jobs", []string{"frontier.ms_per_point", "jobs.queue_ms", "jobs.run_ms", "jobs.notify_ms"},
		func(t *tracer, _ func(string) float64) bool { return t.jobs > 0 }},
}

// layerResult is the traced run's output.
type layerResult struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
}

// replay is one traced in-process replay of a plan.
type replay struct {
	t     *tracer
	ph    *phase
	delta func(string) float64
}

func traceReplay(ctx context.Context, cfg runConfig, p *plan) (*replay, error) {
	t := newTracer(p)
	c := cfg
	c.setupReps = 1
	stack := inProcess{wrap: t.wrap, wrapStore: t.wrapStore}
	ph, err := measure(ctx, c, p, stack.launcher(p), &hooks{reqID: t.reqID, after: t.after})
	if err != nil {
		return nil, err
	}
	d := func(name string) float64 { return sumSeries(ph.after, name) - sumSeries(ph.before, name) }
	// Split the jobs' total solve time evenly over the jobs (their solves
	// interleave), moving it from core to opt.
	if t.jobs > 0 {
		solve := time.Duration(d("libra_engine_solve_duration_seconds_sum") * float64(time.Second))
		t.layers.opt += solve
		t.layers.core = nonNeg(t.layers.core - solve)
	}
	return &replay{t: t, ph: ph, delta: d}, nil
}

// metrics computes the per-layer metrics of one replay.
func (r *replay) metrics() map[string]metric {
	t, d := r.t, r.delta
	per := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	usPer := func(v time.Duration, n int) float64 { return per(float64(v)/float64(time.Microsecond), float64(n)) }
	msPer := func(v time.Duration, n int) float64 { return per(ms(v), float64(n)) }
	reqs := float64(t.requests)
	solves := d("libra_solver_solves_total")
	solveSec := d("libra_engine_solve_duration_seconds_sum")
	pgd, nm := d("libra_solver_pgd_iterations_total"), d("libra_solver_nm_iterations_total")
	lruHits, lruMisses := d("libra_engine_cache_hits_total"), d("libra_engine_cache_misses_total")
	m := map[string]metric{
		"server.self_ms_per_req":      {msPer(t.layers.server, t.requests), "ms"},
		"server.resp_kb_per_req":      {per(float64(t.respBytes)/1024, reqs), "KiB"},
		"server.not_modified_ratio":   {per(float64(t.notModified), reqs), "ratio"},
		"task.parse_us_per_req":       {usPer(t.parse, t.requests), "us"},
		"task.fingerprint_us_per_req": {usPer(t.fingerprint, t.requests), "us"},
		"core.prepare_us_per_cell":    {usPer(t.prepare, t.cells), "us"},
		"core.hit_us_per_cell":        {usPer(t.hit, t.hitCells), "us"},
		"core.disk_decode_us_per_hit": {usPer(t.decode, t.decoded), "us"},
		"core.lru_hit_ratio":          {per(lruHits, lruHits+lruMisses), "ratio"},
		"core.evictions_per_req":      {per(d("libra_engine_cache_evictions_total"), reqs), "count"},
		"core.solve_ms_per_solve":     {per(solveSec*1000, d("libra_engine_solve_duration_seconds_count")), "ms"},
		"core.coalesced_per_job":      {per(d("libra_engine_coalesced_requests_total"), reqs), "count"},
		"store.open_ms":               {ms(t.openDur), "ms"},
		"store.get_us":                {usPer(t.getTime, t.gets), "us"},
		"store.gets_per_req":          {per(float64(t.gets), reqs), "count"},
		"store.hit_ratio":             {per(float64(t.getHits), float64(t.gets)), "ratio"},
		"store.put_us":                {usPer(t.putTime, t.puts), "us"},
		"store.puts_per_req":          {per(float64(t.puts), reqs), "count"},
		"store.compactions":           {d("libra_store_compactions_total"), "count"},
		"opt.starts_per_solve":        {per(d("libra_solver_starts_total"), solves), "count"},
		"opt.pgd_iters_per_solve":     {per(pgd, solves), "count"},
		"opt.nm_iters_per_solve":      {per(nm, solves), "count"},
		"opt.us_per_iter":             {per(solveSec*1e6, pgd+nm), "us"},
		"opt.warm_cut_ratio":          {per(d("libra_solver_warm_cuts_total"), d("libra_solver_warm_solves_total")), "ratio"},
		"frontier.ms_per_point":       {msPer(t.frontierSpan, t.points), "ms"},
		"jobs.queue_ms":               {msPer(t.queue, t.jobs), "ms"},
		"jobs.run_ms":                 {msPer(t.run, t.jobs), "ms"},
		"jobs.notify_ms":              {msPer(t.notify, t.jobs), "ms"},
	}
	for name, share := range r.shares() {
		m["share."+name] = metric{share, "%"}
	}
	return m
}

// layerRows lists the layers in table order with their summed time.
func (r *replay) layerRows() []struct {
	name string
	d    time.Duration
} {
	l := r.t.layers
	return []struct {
		name string
		d    time.Duration
	}{
		{"server", l.server}, {"task", l.task}, {"core", l.core}, {"store", l.store},
		{"opt", l.opt}, {"frontier", l.frontier}, {"jobs", l.jobs}, {"transport", l.transport},
	}
}

// shares is each layer's share of attributed request time, in percent.
// transport (client and loopback) is in the total but not a layer.
func (r *replay) shares() map[string]float64 {
	var total time.Duration
	rows := r.layerRows()
	for _, row := range rows {
		total += row.d
	}
	out := map[string]float64{}
	for _, row := range rows {
		if row.name != "transport" {
			out[row.name] = 100 * float64(row.d) / float64(max(total, 1))
		}
	}
	return out
}

// table is the "where a request's time goes" table of a replay.
func (r *replay) table(workload string) string {
	var b strings.Builder
	shares := r.shares()
	fmt.Fprintf(&b, "| %s layer | ms per request | share |\n|---|---:|---:|\n", workload)
	var total time.Duration
	for _, row := range r.layerRows() {
		total += row.d
	}
	for _, row := range r.layerRows() {
		share := shares[row.name]
		if row.name == "transport" {
			share = 100 * float64(row.d) / float64(max(total, 1))
		}
		fmt.Fprintf(&b, "| %s | %.3f | %.1f%% |\n", row.name, ms(row.d)/float64(max(r.t.requests, 1)), share)
	}
	return b.String()
}

// traceRun is --trace 1: the workload's own traced replay, borrowed
// groups for layers it bypasses, runtime metrics from the untraced
// phase, and the tracing overhead.
func traceRun(ctx context.Context, cfg runConfig, p *plan, e2e *phase) (*layerResult, error) {
	own, err := traceReplay(ctx, cfg, p)
	if err != nil {
		return nil, err
	}
	out := &layerResult{
		attempted: own.ph.load.attempted,
		failed:    own.ph.load.failed,
		failures:  own.ph.load.failures,
		metrics:   own.metrics(),
	}
	borrowed := map[string]*replay{}
	var notes []string
	for _, g := range layerGroups {
		if g.reached(own.t, own.delta) || g.home == cfg.def.name {
			continue
		}
		r := borrowed[g.home]
		if r == nil {
			def, err := lookupWorkload(g.home)
			if err != nil {
				return nil, err
			}
			bp, err := makePlan(def, cfg.seed, 1, 0.05)
			if err != nil {
				return nil, err
			}
			bc := cfg
			bc.def = def
			if r, err = traceReplay(ctx, bc, bp); err != nil {
				return nil, err
			}
			borrowed[g.home] = r
			out.attempted += r.ph.load.attempted
			out.failed += r.ph.load.failed
			out.failures = append(out.failures, r.ph.load.failures...)
		}
		bm := r.metrics()
		for _, name := range g.metrics {
			out.metrics[name] = bm[name]
		}
		notes = append(notes, fmt.Sprintf("%s: measured on a short %s replay", strings.Join(g.metrics, ", "), g.home))
	}

	done := float64(len(e2e.load.done))
	out.metrics["runtime.alloc_kb_per_req"] = metric{float64(e2e.mem[1].TotalAlloc-e2e.mem[0].TotalAlloc) / 1024 / done, "KiB"}
	out.metrics["runtime.gc_per_kreq"] = metric{float64(e2e.mem[1].NumGC-e2e.mem[0].NumGC) * 1000 / done, "count"}
	// Tracing overhead: the traced replay against the same in-process
	// stack without the tracer's handler and store seams.
	c := cfg
	c.setupReps = 1
	bare, err := measure(ctx, c, p, inProcess{}.launcher(p), nil)
	if err != nil {
		return nil, err
	}
	out.attempted += bare.load.attempted
	out.failed += bare.load.failed
	out.failures = append(out.failures, bare.load.failures...)
	out.metrics["trace.overhead_us_per_req"] = metric{(meanDur(own.t.latency) - meanDur(bare.load.done)) / 1e3, "us"}

	if err := writeTrace(cfg, own, notes); err != nil {
		return nil, err
	}
	return out, nil
}

func meanDur(v []time.Duration) float64 {
	if len(v) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range v {
		s += d
	}
	return float64(s) / float64(len(v))
}

// writeTrace writes the spans (JSON lines) and the time table (Markdown)
// under .bench_build/traces, and prints the table to stderr.
func writeTrace(cfg runConfig, r *replay, notes []string) error {
	dir := filepath.Join(cfg.buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", cfg.def.name, cfg.seed))
	f, err := os.Create(base + ".jsonl")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rec := range r.t.records {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	table := r.table(cfg.def.name)
	for _, n := range notes {
		table += "\n- " + n
	}
	fmt.Fprint(os.Stderr, table+"\n")
	return os.WriteFile(base+".md", []byte(table+"\n"), 0o644)
}
