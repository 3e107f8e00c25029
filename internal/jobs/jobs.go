// Package jobs is LIBRA's asynchronous job subsystem: an in-memory
// manager that runs task envelopes (internal/task) through the Engine in
// the background, so clients submit, poll, stream progress, and cancel
// instead of holding a connection open for the duration of a
// 4096-candidate co-design solve.
//
// Lifecycle: Submit validates the task cheaply (fingerprinting it), hands
// back an id, and starts a worker goroutine — pending → running →
// done|failed|cancelled. Every transition and every batch-progress
// observation is appended to the job's ordered event log, which watchers
// (the /v2 SSE endpoint) replay-and-follow without missing or reordering
// events. Terminal jobs are retained for TTL and evicted by a capacity
// bound, oldest-terminal first; the listing is paginated newest-first.
//
// The manager adds no solve parallelism of its own — the Engine's worker
// pool bounds actual compute, and its fingerprint cache makes a
// resubmitted identical task nearly free.
package jobs

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"libra/internal/core"
	"libra/internal/task"
	"libra/internal/telemetry"
)

// Status is a job's lifecycle state.
type Status string

// The job lifecycle: pending → running → done | failed | cancelled.
const (
	StatusPending   Status = "pending"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Event types in a job's event log.
const (
	// EventStatus marks a lifecycle transition; a terminal status event is
	// always the log's last entry.
	EventStatus = "status"
	// EventProgress carries one batch-progress observation.
	EventProgress = "progress"
	// EventSpan carries one finished trace span — where the job's time
	// went (task dispatch, engine solves), tagged with the trace ID the
	// submission carried.
	EventSpan = "span"
)

// maxSpanEvents caps span events per job so a span-heavy computation (a
// wide sweep is thousands of engine solves) cannot balloon the event log
// the SSE endpoint replays. Overflow is counted, not silently eaten.
const maxSpanEvents = 256

// Event is one entry of a job's append-only event log — what the SSE
// endpoint streams. Seq is the 1-based position in the log, so clients
// can resume a dropped stream without duplicates.
type Event struct {
	Seq      int            `json:"seq"`
	Type     string         `json:"type"`
	Status   Status         `json:"status,omitempty"`
	Progress *core.Progress `json:"progress,omitempty"`
	// Span carries one finished trace span on an EventSpan entry.
	Span *telemetry.Span `json:"span,omitempty"`
	// Error carries the failure message on a terminal failed/cancelled
	// status event.
	Error string `json:"error,omitempty"`
}

// Job is a point-in-time snapshot of one job, JSON-shaped for the /v2
// API. Result is only populated on a done job (and omitted from
// listings — fetch the job by id for the payload).
type Job struct {
	ID          string     `json:"id"`
	Kind        task.Kind  `json:"kind"`
	Fingerprint string     `json:"fingerprint,omitempty"`
	TraceID     string     `json:"trace_id,omitempty"`
	Status      Status     `json:"status"`
	Created     time.Time  `json:"created"`
	Started     *time.Time `json:"started,omitempty"`
	Finished    *time.Time `json:"finished,omitempty"`
	// Progress holds the latest observation per stage, in first-report
	// order.
	Progress []core.Progress `json:"progress,omitempty"`
	// Events counts the event-log length (the SSE stream position).
	Events int    `json:"events"`
	Error  string `json:"error,omitempty"`
	Result any    `json:"result,omitempty"`
}

// Config tunes a Manager. Zero values select defaults.
type Config struct {
	// Engine answers the tasks; required.
	Engine *core.Engine
	// Capacity bounds retained jobs, running and terminal together
	// (default 512). At capacity, Submit evicts the oldest terminal job;
	// when every retained job is still live, Submit fails with ErrFull.
	Capacity int
	// TTL bounds how long a terminal job (and its result) is retained
	// (default 15 minutes). Expired jobs are swept opportunistically on
	// every API call.
	TTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 512
	}
	if c.TTL <= 0 {
		c.TTL = 15 * time.Minute
	}
	return c
}

// Manager errors.
var (
	// ErrNotFound marks an unknown (or already evicted) job id.
	ErrNotFound = errors.New("jobs: job not found")
	// ErrFull marks a Submit rejected because every retained job is still
	// pending or running.
	ErrFull = errors.New("jobs: job store full")
	// ErrClosed marks operations on a closed manager.
	ErrClosed = errors.New("jobs: manager closed")
)

// job is the manager-internal record.
type job struct {
	id          string
	task        *task.Task
	fingerprint string
	traceID     string
	spans       int // span events recorded, against maxSpanEvents

	status   Status
	created  time.Time
	started  time.Time
	finished time.Time
	err      error
	result   any

	events   []Event
	progress []core.Progress
	stageIdx map[string]int

	cancel context.CancelFunc
	// expiry is the job's entry in Manager.expiry once it is terminal.
	expiry *list.Element
	// done is closed when the worker goroutine has fully unwound — the
	// "no leaked workers" handle Wait and the tests block on.
	done chan struct{}
	// notify is closed and replaced on every event append; watchers wait
	// on the current one to follow the log.
	notify chan struct{}
}

// Manager runs tasks asynchronously. Safe for concurrent use.
type Manager struct {
	cfg Config

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, oldest first
	// expiry queues the retained terminal jobs in the order they turned
	// terminal, oldest first: with a monotonic clock that is finish-time
	// order, so the TTL sweep pops from the head and stops at the first
	// unexpired job.
	expiry    *list.List
	seq       int
	closed    bool
	submitted uint64
	evictions uint64

	// now is the clock, swappable in tests.
	now func() time.Time
}

// Stats reports the manager's retention state — what /v1/stats serves
// and /readyz checks.
type Stats struct {
	// Depth is how many jobs the store currently retains (live and
	// terminal), against Capacity.
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
	// States counts retained jobs by lifecycle status.
	States map[string]int `json:"states"`
	// Submitted and Evictions are lifetime totals (TTL and capacity
	// evictions together).
	Submitted uint64 `json:"submitted"`
	Evictions uint64 `json:"evictions"`
}

// Stats snapshots the manager counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(m.now())
	s := Stats{
		Depth:     len(m.jobs),
		Capacity:  m.cfg.Capacity,
		States:    map[string]int{},
		Submitted: m.submitted,
		Evictions: m.evictions,
	}
	for _, j := range m.jobs {
		s.States[string(j.status)]++
	}
	return s
}

// Ready reports whether a submission would be accepted now: the manager
// is open and either below capacity or holding an evictable terminal
// job. The readiness probe (/readyz) calls this.
func (m *Manager) Ready() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.sweepLocked(m.now())
	if len(m.jobs) < m.cfg.Capacity || m.expiry.Len() > 0 {
		return nil // room, or a terminal job a submission can evict
	}
	return fmt.Errorf("%w: %d jobs retained, none terminal", ErrFull, m.cfg.Capacity)
}

// setStatusGauges moves a job between the per-status gauge buckets; ""
// means absent (entering on submit, leaving on eviction).
func setStatusGauges(from, to Status) {
	if from != "" {
		telemetry.JobsCurrent.With(string(from)).Dec()
	}
	if to != "" {
		telemetry.JobsCurrent.With(string(to)).Inc()
	}
}

// NewManager builds a Manager over the engine in cfg.
func NewManager(cfg Config) *Manager {
	if cfg.Engine == nil {
		panic("jobs: Config.Engine is required")
	}
	return &Manager{cfg: cfg.withDefaults(), jobs: map[string]*job{}, expiry: list.New(), now: time.Now}
}

// Close cancels every live job and rejects future submissions. It does
// not wait for workers to unwind; Wait on individual jobs for that.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	var cancels []context.CancelFunc
	for _, j := range m.jobs {
		if !j.status.Terminal() {
			cancels = append(cancels, j.cancel)
		}
	}
	m.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// Submit validates the task (a spec that cannot fingerprint is rejected
// here, synchronously, as ErrBadSpec), registers a pending job, and
// starts its worker. The returned snapshot is the job at submission.
//
// ctx is read, not retained: a trace ID attached to it
// (telemetry.WithTraceID — the HTTP layer does this from X-Request-Id)
// is stamped onto the job and rides the worker's own context, so spans
// recorded during execution correlate back to the submitting request.
// Execution itself is never bounded by ctx — submission is fire-and-
// forget; cancel via Cancel.
func (m *Manager) Submit(ctx context.Context, t *task.Task) (*Job, error) {
	if t == nil {
		return nil, fmt.Errorf("%w: nil task", core.ErrBadSpec)
	}
	fp, err := t.Fingerprint()
	if err != nil {
		return nil, err
	}
	now := m.now()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.sweepLocked(now)
	if len(m.jobs) >= m.cfg.Capacity && !m.evictOldestTerminalLocked() {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %d jobs retained, none terminal", ErrFull, m.cfg.Capacity)
	}
	m.seq++
	m.submitted++
	runCtx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:          fmt.Sprintf("job-%06d", m.seq),
		task:        t,
		fingerprint: fp,
		traceID:     telemetry.TraceID(ctx),
		status:      StatusPending,
		created:     now,
		stageIdx:    map[string]int{},
		cancel:      cancel,
		done:        make(chan struct{}),
		notify:      make(chan struct{}),
	}
	j.appendEventLocked(Event{Type: EventStatus, Status: StatusPending})
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	snap := j.snapshotLocked(true)
	m.mu.Unlock()
	telemetry.JobsSubmitted.Inc()
	setStatusGauges("", StatusPending)

	go m.run(runCtx, j)
	return snap, nil
}

// run is the worker: pending → running, execute the task with a progress
// hook wired into the event log, then finish with the outcome.
func (m *Manager) run(ctx context.Context, j *job) {
	defer close(j.done)
	m.mu.Lock()
	if j.status.Terminal() { // cancelled before it ever ran
		m.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = m.now()
	j.appendEventLocked(Event{Type: EventStatus, Status: StatusRunning})
	m.mu.Unlock()
	setStatusGauges(StatusPending, StatusRunning)

	pctx := core.WithProgress(ctx, func(p core.Progress) { m.recordProgress(j, p) })
	// Re-attach the submission's trace ID and record finished spans on
	// the event log, so SSE watchers see where the job's time went.
	if j.traceID != "" {
		pctx = telemetry.WithTraceID(pctx, j.traceID)
	}
	pctx = telemetry.WithSpanRecorder(pctx, func(sp telemetry.Span) { m.recordSpan(j, sp) })
	result, err := task.Run(pctx, m.cfg.Engine, j.task)
	m.finish(j, result, err, ctx.Err() != nil)
}

// recordSpan appends a span event, bounded by maxSpanEvents per job.
// Spans arriving after the job sealed (a cancelled worker unwinding) are
// dropped so the terminal status event stays last in the log.
func (m *Manager) recordSpan(j *job, sp telemetry.Span) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.status.Terminal() || j.spans >= maxSpanEvents {
		telemetry.SpansDropped.Inc()
		return
	}
	j.spans++
	s := sp
	j.appendEventLocked(Event{Type: EventSpan, Span: &s})
}

// recordProgress appends a progress event and updates the per-stage
// latest-observation snapshot. Progress arriving after a cancellation
// transition (the worker unwinding) is dropped — the terminal status
// event stays last in the log.
func (m *Manager) recordProgress(j *job, p core.Progress) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.status.Terminal() {
		return
	}
	if i, ok := j.stageIdx[p.Stage]; ok {
		j.progress[i] = p
	} else {
		j.stageIdx[p.Stage] = len(j.progress)
		j.progress = append(j.progress, p)
	}
	prog := p
	j.appendEventLocked(Event{Type: EventProgress, Progress: &prog})
}

// finish records the worker's outcome unless a cancellation already
// sealed the job.
func (m *Manager) finish(j *job, result any, err error, cancelled bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.status.Terminal() {
		return
	}
	j.finished = m.now()
	prev := j.status
	switch {
	case cancelled || errors.Is(err, context.Canceled):
		j.status = StatusCancelled
		j.err = context.Canceled
		j.appendEventLocked(Event{Type: EventStatus, Status: StatusCancelled, Error: "cancelled"})
	case err != nil:
		j.status = StatusFailed
		j.err = err
		j.appendEventLocked(Event{Type: EventStatus, Status: StatusFailed, Error: err.Error()})
	default:
		j.status = StatusDone
		j.result = result
		j.appendEventLocked(Event{Type: EventStatus, Status: StatusDone})
	}
	j.expiry = m.expiry.PushBack(j)
	setStatusGauges(prev, j.status)
}

// Cancel cancels a live job: the job seals to cancelled immediately (the
// returned snapshot and the SSE stream both see the terminal state) while
// the worker unwinds in the background — Wait blocks until it has. On a
// terminal job Cancel is a no-op returning the current snapshot.
func (m *Manager) Cancel(id string) (*Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	var cancel context.CancelFunc
	if !j.status.Terminal() {
		prev := j.status
		j.status = StatusCancelled
		j.finished = m.now()
		j.err = context.Canceled
		j.appendEventLocked(Event{Type: EventStatus, Status: StatusCancelled, Error: "cancelled"})
		j.expiry = m.expiry.PushBack(j)
		cancel = j.cancel
		setStatusGauges(prev, StatusCancelled)
	}
	snap := j.snapshotLocked(true)
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return snap, nil
}

// Get returns a job snapshot (result included when done).
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(m.now())
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j.snapshotLocked(true), nil
}

// Wait blocks until the job's worker goroutine has fully unwound (or ctx
// expires) and returns the final snapshot. A cancelled job's Wait returns
// only after no work is left in flight on its behalf.
func (m *Manager) Wait(ctx context.Context, id string) (*Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.snapshotLocked(true), nil
}

// ListRequest selects and pages the job listing.
type ListRequest struct {
	// Status filters by lifecycle state when non-empty.
	Status Status
	// Offset/Limit page the newest-first listing; Limit 0 means 50,
	// capped at 500.
	Offset int
	Limit  int
}

// ListResult is one page of the listing plus the filtered total.
type ListResult struct {
	Jobs  []*Job `json:"jobs"`
	Total int    `json:"total"`
}

// List returns jobs newest-first, filtered and paginated. Snapshots in
// the listing omit the result payload.
func (m *Manager) List(req ListRequest) *ListResult {
	limit := req.Limit
	if limit <= 0 {
		limit = 50
	}
	if limit > 500 {
		limit = 500
	}
	offset := req.Offset
	if offset < 0 {
		offset = 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(m.now())
	var filtered []*job
	for i := len(m.order) - 1; i >= 0; i-- {
		j, ok := m.jobs[m.order[i]]
		if !ok {
			continue
		}
		if req.Status != "" && j.status != req.Status {
			continue
		}
		filtered = append(filtered, j)
	}
	out := &ListResult{Total: len(filtered), Jobs: []*Job{}}
	for i := offset; i < len(filtered) && len(out.Jobs) < limit; i++ {
		out.Jobs = append(out.Jobs, filtered[i].snapshotLocked(false))
	}
	return out
}

// EventsSince returns a copy of the job's events from 0-based index
// from, plus a channel that is closed when the next event is appended
// (watchers select on it and re-call). The channel is nil exactly when
// the job is terminal: its terminal status event is already in the log
// and nothing can follow it, so the caller has read the whole log.
func (m *Manager) EventsSince(id string, from int) ([]Event, <-chan struct{}, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if from < 0 {
		from = 0
	}
	var out []Event
	if from < len(j.events) {
		out = append(out, j.events[from:]...)
	}
	if j.status.Terminal() {
		return out, nil, nil
	}
	return out, j.notify, nil
}

// appendEventLocked stamps, appends, and wakes watchers. Callers hold
// m.mu.
func (j *job) appendEventLocked(ev Event) {
	ev.Seq = len(j.events) + 1
	j.events = append(j.events, ev)
	telemetry.JobEvents.Inc()
	close(j.notify)
	j.notify = make(chan struct{})
}

// snapshotLocked copies the job's observable state. Callers hold m.mu.
func (j *job) snapshotLocked(withResult bool) *Job {
	snap := &Job{
		ID:          j.id,
		Kind:        j.task.Kind,
		Fingerprint: j.fingerprint,
		TraceID:     j.traceID,
		Status:      j.status,
		Created:     j.created,
		Events:      len(j.events),
	}
	if !j.started.IsZero() {
		t := j.started
		snap.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		snap.Finished = &t
	}
	if len(j.progress) > 0 {
		snap.Progress = append([]core.Progress(nil), j.progress...)
	}
	if j.err != nil {
		snap.Error = j.err.Error()
	}
	if withResult && j.status == StatusDone {
		snap.Result = j.result
	}
	return snap
}

// sweepLocked evicts terminal jobs past their TTL. It touches only the
// expired jobs at the head of the expiry queue, and compacts the
// submission order only when one left. Callers hold m.mu.
func (m *Manager) sweepLocked(now time.Time) {
	removed := false
	for el := m.expiry.Front(); el != nil; el = m.expiry.Front() {
		j := el.Value.(*job)
		if now.Sub(j.finished) < m.cfg.TTL {
			break
		}
		m.expiry.Remove(el)
		delete(m.jobs, j.id)
		m.evictions++
		telemetry.JobsEvicted.With("ttl").Inc()
		setStatusGauges(j.status, "")
		removed = true
	}
	if !removed {
		return
	}
	keep := m.order[:0]
	for _, id := range m.order {
		if _, ok := m.jobs[id]; ok {
			keep = append(keep, id)
		}
	}
	m.order = keep
}

// evictOldestTerminalLocked drops the oldest terminal job to make room,
// reporting whether it found one. Callers hold m.mu.
func (m *Manager) evictOldestTerminalLocked() bool {
	for i, id := range m.order {
		j, ok := m.jobs[id]
		if !ok {
			continue
		}
		if j.status.Terminal() {
			delete(m.jobs, id)
			m.expiry.Remove(j.expiry)
			m.order = append(m.order[:i], m.order[i+1:]...)
			m.evictions++
			telemetry.JobsEvicted.With("capacity").Inc()
			setStatusGauges(j.status, "")
			return true
		}
	}
	return false
}
