package client

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"libra"
	"libra/internal/jobs"
	"libra/internal/server"
)

func tinySpec() *libra.ProblemSpec {
	return &libra.ProblemSpec{
		Topology:   "RI(4)_SW(8)",
		BudgetGBps: 200,
		Workloads:  []libra.WorkloadSpec{{Preset: "DLRM"}},
	}
}

func testClient(t *testing.T) *Client {
	t.Helper()
	engine := libra.NewEngine(libra.EngineConfig{Workers: 2, CacheSize: 128})
	t.Cleanup(engine.Close)
	manager := libra.NewJobManager(libra.JobConfig{Engine: engine, Capacity: 32})
	t.Cleanup(manager.Close)
	srv := httptest.NewServer(server.New(server.Options{
		Engine: engine, Jobs: manager, MaxBody: 1 << 20,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}))
	t.Cleanup(srv.Close)
	return New(srv.URL)
}

// Do round-trips every typed accessor path worth its name: a sync
// optimize and a sync frontier.
func TestClientDo(t *testing.T) {
	c := testClient(t)
	ctx := context.Background()
	health, err := c.Health(ctx)
	if err != nil || !health.Live || !health.Ready {
		t.Fatalf("health %+v, %v", health, err)
	}
	res, err := c.Do(ctx, libra.NewOptimizeTask(tinySpec()))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := res.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if eng.Result.WeightedTime <= 0 || eng.Fingerprint == "" {
		t.Fatalf("engine result %+v", eng)
	}
	// Cross-kind decoding is refused.
	if _, err := res.Frontier(); err == nil {
		t.Error("optimize result decoded as frontier")
	}

	fres, err := c.Do(ctx, libra.NewFrontierTask(tinySpec(), libra.FrontierRequest{Budgets: []float64{100, 200}}))
	if err != nil {
		t.Fatal(err)
	}
	fr, err := fres.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Points) != 2 {
		t.Fatalf("frontier points %d", len(fr.Points))
	}

	cres, err := c.Do(ctx, libra.NewClusterTask(&libra.ClusterSpec{
		Topology:   "RI(4)_SW(8)",
		BudgetGBps: 200,
		Jobs: []libra.ClusterJobSpec{
			{Transformer: &libra.TransformerSpec{Name: "a", NumLayers: 4, Hidden: 512, SeqLen: 64, TP: 4, Minibatch: 8}},
			{Transformer: &libra.TransformerSpec{Name: "b", NumLayers: 4, Hidden: 256, SeqLen: 64, TP: 4, Minibatch: 8}},
		},
		PartitionSteps: 4,
	}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cres.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 2 || rep.GroupDesign() == nil || rep.Partition == nil {
		t.Fatalf("cluster report: %d jobs, group %v, partition %v", len(rep.Jobs), rep.GroupDesign(), rep.Partition)
	}
	if _, err := cres.CoDesign(); err == nil {
		t.Error("cluster result decoded as codesign")
	}

	stats, err := c.Stats(ctx)
	if err != nil || stats.Engine.Misses == 0 {
		t.Fatalf("stats %+v, %v", stats, err)
	}
	if stats.Jobs.Capacity == 0 {
		t.Fatalf("stats missing jobs section: %+v", stats)
	}

}

// Submit → Watch streams ordered progress and returns the final job,
// whose result decodes; a second Watch on the done job agrees.
func TestClientSubmitWatchWait(t *testing.T) {
	c := testClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	job, err := c.Submit(ctx, libra.NewFrontierTask(tinySpec(),
		libra.FrontierRequest{BudgetMin: 100, BudgetMax: 300, BudgetSteps: 5, SkipEqualBW: true}))
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Status.Terminal() {
		t.Fatalf("submitted job %+v", job)
	}

	var seqs []int
	lastDone := -1
	final, err := c.Watch(ctx, job.ID, func(ev Event) {
		seqs = append(seqs, ev.Seq)
		if ev.Type == jobs.EventProgress && ev.Progress != nil && ev.Progress.Stage == "frontier" {
			if ev.Progress.Done < lastDone {
				t.Errorf("progress regressed %d -> %d", lastDone, ev.Progress.Done)
			}
			lastDone = ev.Progress.Done
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != jobs.StatusDone {
		t.Fatalf("final status %q (%s)", final.Status, final.Error)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("event seqs not contiguous: %v", seqs)
		}
	}
	if lastDone != 5 {
		t.Errorf("last frontier progress %d/5", lastDone)
	}
	fr, err := final.TaskResult().Frontier()
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Points) != 5 {
		t.Errorf("frontier points %d", len(fr.Points))
	}

	// Watch on the already-terminal job returns the same snapshot.
	again, err := c.Watch(ctx, job.ID, nil)
	if err != nil || again.Status != jobs.StatusDone || again.Fingerprint != final.Fingerprint {
		t.Fatalf("watch done job: %+v, %v", again, err)
	}

	// The job listing sees it.
	list, err := c.Jobs(ctx, ListOptions{Status: jobs.StatusDone})
	if err != nil || list.Total == 0 {
		t.Fatalf("jobs list %+v, %v", list, err)
	}
}

// Cancel mid-run lands cancelled through the SDK.
func TestClientCancel(t *testing.T) {
	c := testClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// A heavy spec (big transformer on a 4D network, deep multistart)
	// keeps the sweep running long enough to cancel mid-solve.
	spec := &libra.ProblemSpec{
		Topology:   "RI(4)_FC(8)_RI(4)_SW(32)",
		BudgetGBps: 500,
		Workloads: []libra.WorkloadSpec{{Transformer: &libra.TransformerSpec{
			Name: "big", NumLayers: 96, Hidden: 8192, SeqLen: 1024, TP: 8, Minibatch: 8,
		}}},
		Solver: &libra.SolverSpec{Starts: 256},
	}
	job, err := c.Submit(ctx, libra.NewFrontierTask(spec,
		libra.FrontierRequest{BudgetMin: 200, BudgetMax: 500, BudgetSteps: 2048, SkipEqualBW: true}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Cancel(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != jobs.StatusCancelled {
		t.Fatalf("cancel status %q", got.Status)
	}
	final, err := c.Watch(ctx, job.ID, nil)
	if err != nil || final.Status != jobs.StatusCancelled {
		t.Fatalf("final %+v, %v", final, err)
	}
	if final.TaskResult() != nil {
		t.Error("cancelled job carries a result")
	}
}

// API errors surface status + machine code; definitive errors are not
// retried, transient ones are.
func TestClientErrorsAndRetry(t *testing.T) {
	c := testClient(t)
	ctx := context.Background()

	bad := tinySpec()
	bad.Topology = "nope"
	_, err := c.Do(ctx, libra.NewOptimizeTask(bad))
	var apiErr *APIError
	if !asTestAPIError(err, &apiErr) || apiErr.Code != server.CodeBadSpec || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec error: %v", err)
	}
	if _, err := c.Job(ctx, "job-999999"); !asTestAPIError(err, &apiErr) || apiErr.Code != server.CodeNotFound {
		t.Fatalf("not found error: %v", err)
	}

	// A flaky backend: two 503s, then success. Health's /healthz leg
	// retries through it; the failure count proves the retry path ran.
	var fails atomic.Int32
	fails.Store(2)
	inner := testClient(t)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fails.Add(-1) >= 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"warming up","code":"unavailable"}`))
			return
		}
		http.Redirect(w, r, inner.base+r.URL.Path, http.StatusTemporaryRedirect)
	}))
	defer flaky.Close()
	rc := New(flaky.URL, WithRetryBackoff(time.Millisecond))
	if h, err := rc.Health(ctx); err != nil || !h.Live || !h.Ready {
		t.Fatalf("retry through transient 503s failed: %+v, %v", h, err)
	}

	// With retries exhausted, the transient error surfaces.
	fails.Store(100)
	rc2 := New(flaky.URL, WithRetries(1), WithRetryBackoff(time.Millisecond))
	if _, err := rc2.Health(ctx); !asTestAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("exhausted retries: %v", err)
	}
}

func asTestAPIError(err error, target **APIError) bool {
	e, ok := err.(*APIError)
	if ok {
		*target = e
	}
	return ok
}

// TestClientConditional: the SDK's conditional round-trip. A first Do
// yields an ETag; replaying it with DoConditional answers notModified
// without a payload; a stale tag refetches the full result with the
// current tag attached.
func TestClientConditional(t *testing.T) {
	c := testClient(t)
	ctx := context.Background()

	task := libra.NewOptimizeTask(tinySpec())
	res, err := c.Do(ctx, task)
	if err != nil {
		t.Fatal(err)
	}
	if res.ETag == "" {
		t.Fatal("Do returned no ETag")
	}

	cached, notModified, err := c.DoConditional(ctx, task, res.ETag)
	if err != nil {
		t.Fatal(err)
	}
	if !notModified || cached != nil {
		t.Fatalf("matching tag: notModified=%v res=%v, want bare 304", notModified, cached)
	}

	fresh, notModified, err := c.DoConditional(ctx, task, `"0000000000000000"`)
	if err != nil {
		t.Fatal(err)
	}
	if notModified || fresh == nil {
		t.Fatal("stale tag must refetch")
	}
	if fresh.ETag != res.ETag {
		t.Fatalf("refetch tag %q, want %q", fresh.ETag, res.ETag)
	}
	eng, err := fresh.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if eng.Result.WeightedTime <= 0 {
		t.Fatalf("refetched result %+v", eng)
	}

	// An empty tag degrades to a plain Do.
	plain, notModified, err := c.DoConditional(ctx, task, "")
	if err != nil || notModified || plain == nil {
		t.Fatalf("empty tag: res=%v notModified=%v err=%v", plain, notModified, err)
	}
}

// Job re-declares the server's job snapshot with a raw Result, so its
// wire fields must stay those of jobs.Job, in the same order.
func TestJobFieldsMatchServer(t *testing.T) {
	names := func(typ reflect.Type) []string {
		var out []string
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			out = append(out, name)
		}
		return out
	}
	client, srv := names(reflect.TypeOf(Job{})), names(reflect.TypeOf(jobs.Job{}))
	if !slices.Equal(client, srv) {
		t.Errorf("client.Job JSON fields %v, want jobs.Job's %v", client, srv)
	}
}
