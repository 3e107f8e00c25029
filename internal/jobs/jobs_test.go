package jobs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"libra/internal/core"
	"libra/internal/frontier"
	"libra/internal/task"
)

func tinySpec() *core.ProblemSpec {
	return &core.ProblemSpec{
		Topology:   "RI(4)_SW(8)",
		BudgetGBps: 200,
		Workloads:  []core.WorkloadSpec{{Preset: "DLRM"}},
	}
}

func testManager(t *testing.T, cfg Config) (*Manager, *core.Engine) {
	t.Helper()
	engine := core.NewEngine(core.EngineConfig{Workers: 2, CacheSize: 128})
	t.Cleanup(engine.Close)
	cfg.Engine = engine
	m := NewManager(cfg)
	t.Cleanup(m.Close)
	return m, engine
}

// A submitted optimize job runs to done with the full lifecycle visible
// in its event log, and the result survives until TTL.
func TestJobLifecycleDone(t *testing.T) {
	m, _ := testManager(t, Config{})
	snap, err := m.Submit(context.Background(), task.NewOptimize(tinySpec()))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Status != StatusPending && snap.Status != StatusRunning {
		t.Fatalf("submit snapshot status %q", snap.Status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := m.Wait(ctx, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("final status %q (error %q)", final.Status, final.Error)
	}
	if final.Result == nil {
		t.Fatal("done job lost its result")
	}
	if _, ok := final.Result.(core.EngineResult); !ok {
		t.Fatalf("result type %T", final.Result)
	}
	if final.Started == nil || final.Finished == nil {
		t.Fatal("missing started/finished stamps")
	}

	evs, _, err := m.EventsSince(snap.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	var statuses []Status
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Type == EventStatus {
			statuses = append(statuses, ev.Status)
		}
	}
	want := []Status{StatusPending, StatusRunning, StatusDone}
	if len(statuses) != len(want) {
		t.Fatalf("status transitions %v, want %v", statuses, want)
	}
	for i := range want {
		if statuses[i] != want[i] {
			t.Fatalf("status transitions %v, want %v", statuses, want)
		}
	}
	if last := evs[len(evs)-1]; last.Type != EventStatus || !last.Status.Terminal() {
		t.Errorf("last event %+v is not terminal", last)
	}
}

// A bad spec fails at Submit, synchronously, as ErrBadSpec.
func TestSubmitRejectsBadSpec(t *testing.T) {
	m, _ := testManager(t, Config{})
	bad := tinySpec()
	bad.Topology = "nope"
	if _, err := m.Submit(context.Background(), task.NewOptimize(bad)); !errors.Is(err, core.ErrBadSpec) {
		t.Fatalf("bad spec submit: %v", err)
	}
	if _, err := m.Submit(context.Background(), nil); !errors.Is(err, core.ErrBadSpec) {
		t.Fatalf("nil task submit: %v", err)
	}
}

// A task whose execution errors after submission lands in a terminal
// non-done state with the error recorded. Spec errors are caught at
// Submit, so the simplest post-submission failure is a closed engine.
func TestJobFailed(t *testing.T) {
	engine := core.NewEngine(core.EngineConfig{Workers: 1, CacheSize: 8})
	m := NewManager(Config{Engine: engine})
	t.Cleanup(m.Close)
	engine.Close() // every solve now errors
	snap, err := m.Submit(context.Background(), task.NewOptimize(tinySpec()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := m.Wait(ctx, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	// A closed engine surfaces context.Canceled, which the manager files
	// as cancelled-by-runtime failure semantics: accept either terminal
	// non-done state but require an error message.
	if final.Status == StatusDone || final.Error == "" {
		t.Fatalf("final %q error %q, want terminal failure", final.Status, final.Error)
	}
}

// Cancelling a running job seals it to cancelled immediately and the
// worker unwinds: Wait returns, and the engine reports nothing in
// flight.
func TestCancelRunningJob(t *testing.T) {
	m, engine := testManager(t, Config{})
	// A frontier with many points keeps the 1-2 worker engine busy long
	// enough to cancel mid-solve deterministically.
	tk := task.NewFrontier(tinySpec(), frontier.Request{BudgetMin: 100, BudgetMax: 400, BudgetSteps: 64, SkipEqualBW: true})
	snap, err := m.Submit(context.Background(), tk)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually running (first progress or running event).
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, err := m.Get(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", j.Status)
		}
		time.Sleep(time.Millisecond)
	}
	got, err := m.Cancel(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusCancelled {
		t.Fatalf("cancel snapshot status %q", got.Status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := m.Wait(ctx, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCancelled {
		t.Fatalf("final status %q", final.Status)
	}
	// No leaked workers: once Wait returned, the engine drains to zero
	// in-flight solves (the last waiter's departure cancels them).
	drained := false
	for i := 0; i < 1000; i++ {
		if engine.Stats().InFlight == 0 {
			drained = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !drained {
		t.Fatalf("engine still reports %d in-flight solves after cancel", engine.Stats().InFlight)
	}
	// Cancel on a terminal job is a no-op.
	again, err := m.Cancel(snap.ID)
	if err != nil || again.Status != StatusCancelled {
		t.Fatalf("re-cancel: %+v, %v", again, err)
	}
}

// Progress events stream in order with monotonically non-decreasing
// done counts, and the watcher channel wakes followers.
func TestProgressEventsMonotonic(t *testing.T) {
	m, _ := testManager(t, Config{})
	budgets := frontier.Request{BudgetMin: 100, BudgetMax: 300, BudgetSteps: 8, SkipEqualBW: true}
	snap, err := m.Submit(context.Background(), task.NewFrontier(tinySpec(), budgets))
	if err != nil {
		t.Fatal(err)
	}

	// Follow the log as a watcher would.
	var events []Event
	idx := 0
	deadline := time.After(time.Minute)
	for {
		evs, ch, err := m.EventsSince(snap.ID, idx)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, evs...)
		idx += len(evs)
		if len(events) > 0 {
			last := events[len(events)-1]
			if last.Type == EventStatus && last.Status.Terminal() {
				break
			}
		}
		select {
		case <-ch:
		case <-deadline:
			t.Fatalf("no terminal event after %d events", len(events))
		}
	}

	lastDone := -1
	progress := 0
	for _, ev := range events {
		if ev.Type != EventProgress {
			continue
		}
		progress++
		if ev.Progress == nil || ev.Progress.Stage != "frontier" {
			continue
		}
		if ev.Progress.Done < lastDone {
			t.Errorf("progress regressed: %d after %d", ev.Progress.Done, lastDone)
		}
		lastDone = ev.Progress.Done
		if ev.Progress.Total != 8 {
			t.Errorf("total %d, want 8", ev.Progress.Total)
		}
	}
	if progress == 0 {
		t.Error("no progress events recorded")
	}
	if lastDone != 8 {
		t.Errorf("final done %d, want 8", lastDone)
	}
}

// TTL eviction: terminal jobs disappear once their TTL elapses; live
// jobs never do.
func TestTTLEviction(t *testing.T) {
	m, _ := testManager(t, Config{TTL: time.Minute})
	clock := time.Now()
	m.now = func() time.Time { return clock }

	snap, err := m.Submit(context.Background(), task.NewOptimize(tinySpec()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := m.Wait(ctx, snap.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(snap.ID); err != nil {
		t.Fatalf("terminal job evicted before TTL: %v", err)
	}
	clock = clock.Add(2 * time.Minute)
	if _, err := m.Get(snap.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired job still retrievable: %v", err)
	}
}

// fakeClock is a manager clock tests move by hand; workers read it
// concurrently.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) set(t time.Time) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

// slowTask runs until cancelled: a seconds-long perf-per-cost solve on a
// 7D fabric with 36 weighted targets and an exact tolerance.
func slowTask() *task.Task {
	var ws []core.WorkloadSpec
	for i := 0; i < 12; i++ {
		for _, name := range []string{"GPT-3", "MSFT-1T", "Turing-NLG"} {
			ws = append(ws, core.WorkloadSpec{Preset: name, Weight: 1 + float64(i)/12})
		}
	}
	return task.NewOptimize(&core.ProblemSpec{
		Topology:   "RI(2)_RI(2)_FC(8)_RI(2)_RI(2)_SW(4)_SW(8)",
		Workloads:  ws,
		BudgetGBps: 500,
		Objective:  "perf-per-cost",
		Solver:     &core.SolverSpec{Starts: 64, MaxIters: 5000, Tol: -1},
	})
}

// Jobs that turn terminal out of submission order expire in finish
// order, while capacity eviction still takes the oldest terminal job by
// submission and the listing stays newest-first by submission.
func TestTTLEvictionFinishOrder(t *testing.T) {
	m, _ := testManager(t, Config{TTL: time.Minute, Capacity: 3})
	t0 := time.Now()
	clock := &fakeClock{t: t0}
	m.now = clock.now
	at := func(d time.Duration) { clock.set(t0.Add(d)) }
	present := func(want map[string]bool) {
		t.Helper()
		for id, ok := range want {
			if _, err := m.Get(id); (err == nil) != ok {
				t.Errorf("job %s retained = %v, want %v (err %v)", id, err == nil, ok, err)
			}
		}
	}

	var ids []string
	for i := 0; i < 3; i++ {
		snap, err := m.Submit(context.Background(), slowTask())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	a, b, c := ids[0], ids[1], ids[2]
	// Finish order c, a, b: the reverse-ish of submission order.
	for _, step := range []struct {
		id string
		d  time.Duration
	}{{c, 0}, {a, 30 * time.Second}, {b, 50 * time.Second}} {
		at(step.d)
		if _, err := m.Cancel(step.id); err != nil {
			t.Fatal(err)
		}
	}

	// At capacity, a submission evicts a — the oldest by submission —
	// not c, the first to finish.
	at(55 * time.Second)
	d, err := m.Submit(context.Background(), slowTask())
	if err != nil {
		t.Fatal(err)
	}
	present(map[string]bool{a: false, b: true, c: true, d.ID: true})

	at(61 * time.Second) // c (finished at 0) expires; b (50 s) does not
	present(map[string]bool{b: true, c: false, d.ID: true})
	list := m.List(ListRequest{})
	if list.Total != 2 || list.Jobs[0].ID != d.ID || list.Jobs[1].ID != b {
		t.Errorf("listing after sweep = %+v, want [%s %s]", list.Jobs, d.ID, b)
	}

	at(111 * time.Second) // b expires; d is live and never does
	present(map[string]bool{b: false, d.ID: true})
	if st := m.Stats(); st.Depth != 1 || st.Evictions != 3 {
		t.Errorf("stats = %+v, want depth 1 after 3 evictions", st)
	}
	if _, err := m.Cancel(d.ID); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkManagerGet reads one job of a manager at its default capacity
// of terminal jobs, none expired: the TTL sweep every Get runs must not
// walk them.
func BenchmarkManagerGet(b *testing.B) {
	engine := core.NewEngine(core.EngineConfig{Workers: 2, CacheSize: 128})
	defer engine.Close()
	m := NewManager(Config{Engine: engine})
	defer m.Close()
	ctx := context.Background()
	var last string
	for i := 0; i < m.cfg.Capacity; i++ {
		snap, err := m.Submit(ctx, task.NewOptimize(tinySpec()))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Wait(ctx, snap.ID); err != nil {
			b.Fatal(err)
		}
		last = snap.ID
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Get(last); err != nil {
			b.Fatal(err)
		}
	}
}

// Capacity: at the bound, Submit evicts the oldest terminal job; with
// only live jobs it fails with ErrFull.
func TestCapacityEviction(t *testing.T) {
	m, _ := testManager(t, Config{Capacity: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	a, err := m.Submit(context.Background(), task.NewOptimize(tinySpec()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
	spec2 := tinySpec()
	spec2.BudgetGBps = 300
	b, err := m.Submit(context.Background(), task.NewOptimize(spec2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(ctx, b.ID); err != nil {
		t.Fatal(err)
	}
	// Third submission evicts a (the oldest terminal).
	spec3 := tinySpec()
	spec3.BudgetGBps = 400
	c, err := m.Submit(context.Background(), task.NewOptimize(spec3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(a.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest terminal job not evicted: %v", err)
	}
	if _, err := m.Wait(ctx, c.ID); err != nil {
		t.Fatal(err)
	}

	// Fill the store with unfinishable jobs: further submissions fail.
	m2, _ := testManager(t, Config{Capacity: 1})
	slow := task.NewFrontier(tinySpec(), frontier.Request{BudgetMin: 100, BudgetMax: 400, BudgetSteps: 64, SkipEqualBW: true})
	live, err := m2.Submit(context.Background(), slow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Submit(context.Background(), task.NewOptimize(tinySpec())); !errors.Is(err, ErrFull) {
		t.Fatalf("over-capacity submit: %v", err)
	}
	if _, err := m2.Cancel(live.ID); err != nil {
		t.Fatal(err)
	}
}

// List pages newest-first with status filtering.
func TestListPagination(t *testing.T) {
	m, _ := testManager(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var ids []string
	for i := 0; i < 3; i++ {
		spec := tinySpec()
		spec.BudgetGBps = 100 + 50*float64(i)
		snap, err := m.Submit(context.Background(), task.NewOptimize(spec))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
		if _, err := m.Wait(ctx, snap.ID); err != nil {
			t.Fatal(err)
		}
	}
	all := m.List(ListRequest{})
	if all.Total != 3 || len(all.Jobs) != 3 {
		t.Fatalf("list total %d len %d", all.Total, len(all.Jobs))
	}
	if all.Jobs[0].ID != ids[2] || all.Jobs[2].ID != ids[0] {
		t.Errorf("listing not newest-first: %s, %s, %s", all.Jobs[0].ID, all.Jobs[1].ID, all.Jobs[2].ID)
	}
	if all.Jobs[0].Result != nil {
		t.Error("listing leaked a result payload")
	}
	page := m.List(ListRequest{Offset: 1, Limit: 1})
	if page.Total != 3 || len(page.Jobs) != 1 || page.Jobs[0].ID != ids[1] {
		t.Errorf("page: total %d, jobs %+v", page.Total, page.Jobs)
	}
	done := m.List(ListRequest{Status: StatusDone})
	if done.Total != 3 {
		t.Errorf("status filter total %d", done.Total)
	}
	none := m.List(ListRequest{Status: StatusFailed})
	if none.Total != 0 || len(none.Jobs) != 0 {
		t.Errorf("failed filter returned %d", none.Total)
	}
}

// Concurrent submits, gets, lists, and cancels are race-clean; identical
// tasks share engine solves via the fingerprint cache.
func TestConcurrentAccess(t *testing.T) {
	m, _ := testManager(t, Config{Capacity: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	ids := make([]string, 8)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snap, err := m.Submit(context.Background(), task.NewOptimize(tinySpec()))
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = snap.ID
			m.List(ListRequest{})
			if _, err := m.Wait(ctx, snap.ID); err != nil {
				t.Error(err)
			}
			if _, err := m.Get(snap.ID); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status != StatusDone {
			t.Errorf("%s: status %q (%s)", id, j.Status, j.Error)
		}
	}
}

// EventsSince's channel is nil exactly when the job is terminal: a live
// job's channel closes on its next append, and a done, failed or
// cancelled job's log is complete, from any index — for a cancelled job
// from the moment Cancel returns, whether or not its worker has unwound.
func TestEventsSinceNilChannelExactlyWhenTerminal(t *testing.T) {
	m, _ := testManager(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	complete := func(id string, want Status) {
		t.Helper()
		evs, more, err := m.EventsSince(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if more != nil {
			t.Errorf("%s job: non-nil channel on a terminal log", want)
		}
		if last := evs[len(evs)-1]; last.Type != EventStatus || last.Status != want {
			t.Errorf("%s job: last event %+v", want, last)
		}
		if tail, more, err := m.EventsSince(id, len(evs)+5); err != nil || len(tail) != 0 || more != nil {
			t.Errorf("%s job past the end: %d events, channel %v, err %v", want, len(tail), more, err)
		}
	}

	done, err := m.Submit(ctx, task.NewOptimize(tinySpec()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(ctx, done.ID); err != nil {
		t.Fatal(err)
	}
	complete(done.ID, StatusDone)

	// Infeasible constraints fingerprint fine and fail only when solved.
	bad := tinySpec()
	bad.Constraints = []core.ConstraintSpec{core.DimCap(1, -5)}
	failed, err := m.Submit(ctx, task.NewOptimize(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(ctx, failed.ID); err != nil {
		t.Fatal(err)
	}
	complete(failed.ID, StatusFailed)

	// slowTask runs until its context ends.
	live, err := m.Submit(ctx, slowTask())
	if err != nil {
		t.Fatal(err)
	}
	_, more, err := m.EventsSince(live.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if more == nil {
		t.Fatal("live job: nil channel")
	}
	if _, err := m.Cancel(live.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-more:
	default:
		t.Fatal("the cancel event did not close the live job's channel")
	}
	complete(live.ID, StatusCancelled) // before Wait: the worker may still be unwinding
	if _, err := m.Wait(ctx, live.ID); err != nil {
		t.Fatal(err)
	}
	complete(live.ID, StatusCancelled)
}
