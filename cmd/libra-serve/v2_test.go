package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"libra"
	"libra/internal/core"
	"libra/internal/jobs"
)

const tinyProblem = `{"topology":"RI(4)_SW(8)","budget_gbps":200,"workloads":[{"preset":"DLRM"}]}`

// v1Bodies maps each kind to its v1 endpoint and request body; the same
// body wrapped in the envelope must answer identically through /v2/tasks
// and through an awaited /v2/jobs job.
var v1Bodies = []struct {
	kind, path, body string
}{
	{"optimize", "/v1/optimize", tinyProblem},
	{"evaluate", "/v1/evaluate", `{"spec":` + tinyProblem + `,"bw":[100,100]}`},
	{"sweep", "/v1/sweep", `{"spec":` + tinyProblem + `,"sweep":{"budgets":[100,200]}}`},
	{"frontier", "/v1/frontier", `{"spec":` + tinyProblem + `,"frontier":{"budgets":[100,200]}}`},
	{"codesign", "/v1/codesign", codesignBody},
	{"validate", "/v1/validate", `{"topologies":["3D-Torus"],"workloads":["DLRM"],"collectives":["ar"]}`},
	{"cluster", "/v1/cluster", clusterBody},
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// waitJob polls until the job is terminal and returns its snapshot JSON.
func waitJob(t *testing.T, base, id string) map[string]json.RawMessage {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, body := getJSON(t, base+"/v2/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s: status %d: %s", id, resp.StatusCode, body)
		}
		var job map[string]json.RawMessage
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		var status string
		json.Unmarshal(job["status"], &status)
		if jobs.Status(status).Terminal() {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// For every kind: the /v1 body, the same body through /v2/tasks, and the
// same body awaited through /v2/jobs all return the identical payload
// (modulo the job envelope and volatile cache/timing metadata). Every
// registered kind must have a case, so each /v1/<kind> route answers.
func TestV2ParityAllKinds(t *testing.T) {
	srv := testServer(t)
	covered := map[string]bool{}
	for _, tc := range v1Bodies {
		covered[tc.path] = tc.path == "/v1/"+tc.kind
	}
	for _, kind := range libra.TaskKinds() {
		if !covered["/v1/"+string(kind)] {
			t.Errorf("v1Bodies has no /v1/%s case", kind)
		}
	}
	for _, tc := range v1Bodies {
		envelope := fmt.Sprintf(`{"kind":%q,"spec":%s}`, tc.kind, tc.body)

		resp1, v1Body := postJSON(t, srv.URL+tc.path, tc.body)
		if resp1.StatusCode != http.StatusOK {
			t.Fatalf("%s: v1 status %d: %s", tc.kind, resp1.StatusCode, v1Body)
		}
		resp2, v2Body := postJSON(t, srv.URL+"/v2/tasks", envelope)
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("%s: /v2/tasks status %d: %s", tc.kind, resp2.StatusCode, v2Body)
		}
		if got, want := normalizePayload(t, v2Body), normalizePayload(t, v1Body); got != want {
			t.Errorf("%s: /v2/tasks diverged from %s:\n%s\nvs\n%s", tc.kind, tc.path, got, want)
		}

		resp3, jobBody := postJSON(t, srv.URL+"/v2/jobs", envelope)
		if resp3.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: /v2/jobs status %d: %s", tc.kind, resp3.StatusCode, jobBody)
		}
		var submitted struct {
			ID     string `json:"id"`
			Kind   string `json:"kind"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal(jobBody, &submitted); err != nil {
			t.Fatal(err)
		}
		if submitted.ID == "" || submitted.Kind != tc.kind {
			t.Fatalf("%s: submit snapshot %s", tc.kind, jobBody)
		}
		final := waitJob(t, srv.URL, submitted.ID)
		var status string
		json.Unmarshal(final["status"], &status)
		if status != string(jobs.StatusDone) {
			t.Fatalf("%s: job finished %q: %s", tc.kind, status, final["error"])
		}
		if got, want := normalizePayload(t, final["result"]), normalizePayload(t, v1Body); got != want {
			t.Errorf("%s: job result diverged from %s:\n%s\nvs\n%s", tc.kind, tc.path, got, want)
		}
	}
}

// normalizePayload decodes JSON and strips volatile metadata (timings,
// cache flags, per-point cached markers) so payload comparisons test
// semantics, not scheduling.
func normalizePayload(t *testing.T, data []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("normalize %s: %v", data, err)
	}
	v = stripVolatile(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func stripVolatile(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for _, k := range []string{"elapsed_ms", "cached", "cache_hits", "solves"} {
			delete(x, k)
		}
		for k, val := range x {
			x[k] = stripVolatile(val)
		}
	case []any:
		for i, val := range x {
			x[i] = stripVolatile(val)
		}
	}
	return v
}

// An SSE-watched frontier job streams pending → running, monotonically
// non-decreasing done/total progress, and a terminal done event, in
// order.
func TestV2JobEventsSSE(t *testing.T) {
	srv := testServer(t)
	envelope := `{"kind":"frontier","spec":{"spec":` + tinyProblem + `,"frontier":{"budget_min":100,"budget_max":400,"budget_steps":6,"skip_equal_bw":true}}}`
	resp, body := postJSON(t, srv.URL+"/v2/jobs", envelope)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}

	stream, err := http.Get(srv.URL + "/v2/jobs/" + submitted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	type sse struct {
		event string
		data  jobs.Event
	}
	var events []sse
	scanner := bufio.NewScanner(stream.Body)
	var cur sse
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatal(err)
			}
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
				cur = sse{}
			}
		}
	}
	// The stream ends at the terminal event; the scanner just drains.
	if len(events) < 4 {
		t.Fatalf("only %d events", len(events))
	}
	for i, ev := range events {
		if ev.data.Seq != i+1 {
			t.Errorf("event %d: seq %d (stream reordered or dropped)", i, ev.data.Seq)
		}
	}
	if events[0].data.Status != jobs.StatusPending {
		t.Errorf("first event %+v, want pending", events[0].data)
	}
	last := events[len(events)-1]
	if last.event != jobs.EventStatus || last.data.Status != jobs.StatusDone {
		t.Errorf("last event %+v, want done status", last.data)
	}
	lastDone := -1
	saw := 0
	for _, ev := range events {
		if ev.event != jobs.EventProgress || ev.data.Progress == nil {
			continue
		}
		p := ev.data.Progress
		if p.Stage != "frontier" {
			continue
		}
		saw++
		if p.Total != 6 {
			t.Errorf("progress total %d, want 6", p.Total)
		}
		if p.Done < lastDone {
			t.Errorf("progress done regressed %d -> %d", lastDone, p.Done)
		}
		if p.CacheHits > p.Done {
			t.Errorf("progress hits %d > done %d", p.CacheHits, p.Done)
		}
		lastDone = p.Done
	}
	if saw == 0 || lastDone != 6 {
		t.Errorf("saw %d frontier progress events ending at %d/6", saw, lastDone)
	}

	// Resuming from a mid-stream seq replays only the tail.
	resumed, err := http.Get(srv.URL + "/v2/jobs/" + submitted.ID + "/events?from=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Body.Close()
	tail := bufio.NewScanner(resumed.Body)
	var firstSeq int
	for tail.Scan() {
		if strings.HasPrefix(tail.Text(), "id: ") {
			fmt.Sscanf(tail.Text(), "id: %d", &firstSeq)
			break
		}
	}
	if firstSeq != 3 {
		t.Errorf("resumed stream starts at seq %d, want 3", firstSeq)
	}

	// A ?from= past the end of a terminal job's log must end immediately
	// instead of hanging on events that will never come.
	overCh := make(chan error, 1)
	go func() {
		over, err := http.Get(srv.URL + "/v2/jobs/" + submitted.ID + "/events?from=9999")
		if err != nil {
			overCh <- err
			return
		}
		defer over.Body.Close()
		_, err = io.ReadAll(over.Body)
		overCh <- err
	}()
	select {
	case err := <-overCh:
		if err != nil {
			t.Errorf("out-of-range from: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("out-of-range ?from= on a terminal job hung")
	}
}

// A ?from= equal to a live job's log length blocks until the job appends
// its next event, then streams it: here the cancelled status event a
// DELETE appends, which also ends the stream.
func TestV2JobEventsFromLiveEnd(t *testing.T) {
	srv, _, manager := testServerParts(t)
	// A seconds-long perf-per-cost solve (7D fabric, 36 weighted targets,
	// exact tolerance) appends nothing between running and its end.
	var ws []core.WorkloadSpec
	for i := 0; i < 12; i++ {
		for _, name := range []string{"GPT-3", "MSFT-1T", "Turing-NLG"} {
			ws = append(ws, core.WorkloadSpec{Preset: name, Weight: 1 + float64(i)/12})
		}
	}
	envelope, err := json.Marshal(libra.NewOptimizeTask(&core.ProblemSpec{
		Topology:   "RI(2)_RI(2)_FC(8)_RI(2)_RI(2)_SW(4)_SW(8)",
		Workloads:  ws,
		BudgetGBps: 500,
		Objective:  "perf-per-cost",
		Solver:     &core.SolverSpec{Starts: 64, MaxIters: 5000, Tol: -1},
	}))
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, srv.URL+"/v2/jobs", string(envelope))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	var logLen int
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, err := manager.Get(submitted.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status == jobs.StatusRunning {
			logLen = j.Events
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", j.Status)
		}
		time.Sleep(time.Millisecond)
	}

	stream, err := http.Get(fmt.Sprintf("%s/v2/jobs/%s/events?from=%d", srv.URL, submitted.ID, logLen))
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", stream.StatusCode)
	}
	events, stop := make(chan jobs.Event), make(chan struct{})
	defer close(stop) // before the body closes, so the reader can return
	go func() {
		defer close(events)
		scanner := bufio.NewScanner(stream.Body)
		for scanner.Scan() {
			if data, ok := strings.CutPrefix(scanner.Text(), "data: "); ok {
				var ev jobs.Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Error(err)
					return
				}
				select {
				case events <- ev:
				case <-stop:
					return
				}
			}
		}
	}()
	select {
	case ev, ok := <-events:
		t.Fatalf("stream at the live end of the log did not block: event %+v, open %v", ev, ok)
	case <-time.After(100 * time.Millisecond):
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v2/jobs/"+submitted.ID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	var got []jobs.Event
	timeout := time.After(10 * time.Second)
	for open := true; open; {
		select {
		case ev, ok := <-events:
			if ok {
				got = append(got, ev)
			}
			open = ok
		case <-timeout:
			t.Fatalf("stream did not end after the cancel; got %+v", got)
		}
	}
	if len(got) != 1 || got[0].Seq != logLen+1 || got[0].Type != jobs.EventStatus || got[0].Status != jobs.StatusCancelled {
		t.Fatalf("streamed %+v, want only the cancelled status event at seq %d", got, logLen+1)
	}
}

// An SSE-watched cluster job streams monotonically non-decreasing
// progress for the "cluster" stage that ends complete, and — with a
// budget axis — a relabeled "cluster-frontier" stage, never a bare
// "frontier" one.
func TestV2ClusterJobSSE(t *testing.T) {
	srv := testServer(t)
	spec := strings.TrimSuffix(strings.TrimSpace(clusterBody), "}") + `,"budgets":[100,200]}`
	envelope := `{"kind":"cluster","spec":` + spec + `}`
	resp, body := postJSON(t, srv.URL+"/v2/jobs", envelope)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}

	stream, err := http.Get(srv.URL + "/v2/jobs/" + submitted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	type stage struct{ lastDone, total, seen int }
	stages := map[string]*stage{}
	var finalStatus jobs.Status
	scanner := bufio.NewScanner(stream.Body)
	var ev jobs.Event
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatal(err)
			}
		case line == "":
			if ev.Type == jobs.EventStatus {
				finalStatus = ev.Status
			}
			if ev.Type == jobs.EventProgress && ev.Progress != nil {
				p := ev.Progress
				s := stages[p.Stage]
				if s == nil {
					s = &stage{lastDone: -1}
					stages[p.Stage] = s
				}
				if p.Done < s.lastDone {
					t.Errorf("%s: progress regressed %d -> %d", p.Stage, s.lastDone, p.Done)
				}
				s.lastDone, s.total = p.Done, p.Total
				s.seen++
			}
			ev = jobs.Event{}
		}
	}
	if finalStatus != jobs.StatusDone {
		t.Fatalf("job finished %q", finalStatus)
	}
	cl := stages["cluster"]
	if cl == nil || cl.seen == 0 {
		t.Fatalf("no cluster-stage progress (stages %v)", stages)
	}
	if cl.lastDone != cl.total || cl.total == 0 {
		t.Errorf("cluster stage ended %d/%d", cl.lastDone, cl.total)
	}
	fr := stages["cluster-frontier"]
	if fr == nil || fr.total != 2 || fr.lastDone != 2 {
		t.Errorf("cluster-frontier stage %+v, want 2/2", fr)
	}
	if _, leaked := stages["frontier"]; leaked {
		t.Error("inner frontier sweep leaked an unrelabeled \"frontier\" stage")
	}
}

// Cancelling a running cluster job via DELETE returns status "cancelled"
// and the engine drains to zero in-flight solves.
func TestV2CancelClusterJob(t *testing.T) {
	srv, engine, manager := testServerParts(t)
	// Two heavy jobs times a deep multistart budget and a dense partition
	// grid keeps the study running long enough to cancel mid-solve even
	// when the watcher goroutine is starved on a single-CPU box. The
	// perf-per-cost objective matters: the perf objective is convex and
	// early-exits after one start, ignoring the multistart budget.
	envelope := `{"kind":"cluster","spec":{"topology":"RI(4)_FC(8)_RI(4)_SW(32)","budget_gbps":500,
		"objective":"perf-per-cost","solver":{"starts":256},"partition_steps":32,
		"jobs":[{"transformer":{"name":"big1","num_layers":96,"hidden":8192,"seq_len":1024,"tp":8,"minibatch":8}},
		        {"transformer":{"name":"big2","num_layers":96,"hidden":4096,"seq_len":1024,"tp":8,"minibatch":8}}]}}`
	resp, body := postJSON(t, srv.URL+"/v2/jobs", envelope)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, err := manager.Get(submitted.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status == jobs.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", j.Status)
		}
		time.Sleep(time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v2/jobs/"+submitted.ID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", delResp.StatusCode)
	}
	var cancelled struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(delResp.Body).Decode(&cancelled); err != nil {
		t.Fatal(err)
	}
	if cancelled.Status != string(jobs.StatusCancelled) {
		t.Fatalf("DELETE returned status %q, want cancelled", cancelled.Status)
	}
	drained := false
	for i := 0; i < 2000; i++ {
		if engine.Stats().InFlight == 0 {
			drained = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !drained {
		t.Fatalf("engine stats still show %d in-flight solves after cancel", engine.Stats().InFlight)
	}
}

// Cancelling a running co-design job via DELETE returns status
// "cancelled" and the engine drains to zero in-flight solves.
func TestV2CancelCoDesignJob(t *testing.T) {
	srv, engine, manager := testServerParts(t)
	// A heavy multistart budget times a dense budget axis keeps the study
	// running long enough to cancel mid-solve deterministically: the
	// window must dwarf the tens of milliseconds an HTTP round trip can
	// stall while the solver saturates every core (acute on one-CPU CI,
	// where the serving goroutine waits behind CPU-bound solver work).
	budgets := make([]string, 512)
	for i := range budgets {
		budgets[i] = fmt.Sprintf("%d", 200+5*i)
	}
	envelope := `{"kind":"codesign","spec":{"base":{"topology":"RI(4)_FC(8)_RI(4)_SW(32)","budget_gbps":500,
		"solver":{"starts":256},
		"workloads":[{"transformer":{"name":"big","num_layers":96,"hidden":8192,"seq_len":1024,"tp":8,"minibatch":8}}]},
		"tps":[8,16,32],"budgets":[` + strings.Join(budgets, ",") + `]}}`
	resp, body := postJSON(t, srv.URL+"/v2/jobs", envelope)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	// Wait for it to actually run.
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, err := manager.Get(submitted.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status == jobs.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", j.Status)
		}
		time.Sleep(time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v2/jobs/"+submitted.ID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", delResp.StatusCode)
	}
	var cancelled struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(delResp.Body).Decode(&cancelled); err != nil {
		t.Fatal(err)
	}
	if cancelled.Status != string(jobs.StatusCancelled) {
		t.Fatalf("DELETE returned status %q, want cancelled", cancelled.Status)
	}

	// No stuck in-flight solves: the abandoned work drains.
	drained := false
	for i := 0; i < 2000; i++ {
		if engine.Stats().InFlight == 0 {
			drained = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !drained {
		t.Fatalf("engine stats still show %d in-flight solves after cancel", engine.Stats().InFlight)
	}
}

// Job listing paginates and filters.
func TestV2JobListing(t *testing.T) {
	srv := testServer(t)
	var ids []string
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"kind":"optimize","spec":{"topology":"RI(4)_SW(8)","budget_gbps":%d,"workloads":[{"preset":"DLRM"}]}}`, 100+50*i)
		resp, data := postJSON(t, srv.URL+"/v2/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, data)
		}
		var s struct {
			ID string `json:"id"`
		}
		json.Unmarshal(data, &s)
		ids = append(ids, s.ID)
		waitJob(t, srv.URL, s.ID)
	}
	resp, data := getJSON(t, srv.URL+"/v2/jobs?limit=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var list struct {
		Jobs  []struct{ ID string } `json:"jobs"`
		Total int                   `json:"total"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if list.Total != 3 || len(list.Jobs) != 2 || list.Jobs[0].ID != ids[2] {
		t.Errorf("list = %+v (ids %v)", list, ids)
	}
	resp, _ = getJSON(t, srv.URL+"/v2/jobs?status=done&offset=2")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("filtered list: %d", resp.StatusCode)
	}
	resp, _ = getJSON(t, srv.URL+"/v2/jobs?limit=nope")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit: %d", resp.StatusCode)
	}
}

// Error codes: every failure mode carries its stable machine code.
func TestErrorCodes(t *testing.T) {
	srv := testServer(t)
	check := func(resp *http.Response, body []byte, wantStatus int, wantCode string) {
		t.Helper()
		if resp.StatusCode != wantStatus {
			t.Errorf("status %d, want %d (%s)", resp.StatusCode, wantStatus, body)
		}
		var e struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("error body %s: %v", body, err)
		}
		if e.Code != wantCode || e.Error == "" {
			t.Errorf("code %q (error %q), want %q", e.Code, e.Error, wantCode)
		}
	}

	// bad_spec: malformed envelope, unknown kind, bad payload — v1 & v2.
	resp, body := postJSON(t, srv.URL+"/v2/tasks", `{"kind":"nope","spec":{}}`)
	check(resp, body, http.StatusBadRequest, "bad_spec")
	resp, body = postJSON(t, srv.URL+"/v2/jobs", `{"kind":"optimize","spec":{"topology":"??"}}`)
	check(resp, body, http.StatusBadRequest, "bad_spec")
	resp, body = postJSON(t, srv.URL+"/v1/optimize", `{"bogus":1}`)
	check(resp, body, http.StatusBadRequest, "bad_spec")
	// Trailing data after the JSON value is bad_spec too, on both surfaces.
	resp, body = postJSON(t, srv.URL+"/v1/optimize", tinyProblem+`xyz`)
	check(resp, body, http.StatusBadRequest, "bad_spec")
	resp, body = postJSON(t, srv.URL+"/v2/tasks", `{"kind":"optimize","spec":`+tinyProblem+`} {"kind":"cluster"} trailing-garbage`)
	check(resp, body, http.StatusBadRequest, "bad_spec")
	// A sweep whose axes multiply past the point limit is bad_spec,
	// rejected before any cell is solved.
	budgets := strings.TrimSuffix(strings.Repeat("300,", core.MaxPoints+1), ",")
	resp, body = postJSON(t, srv.URL+"/v1/sweep", `{"spec":`+tinyProblem+`,"sweep":{"budgets":[`+budgets+`]}}`)
	check(resp, body, http.StatusBadRequest, "bad_spec")

	// not_found.
	resp, body = getJSON(t, srv.URL+"/v2/jobs/job-999999")
	check(resp, body, http.StatusNotFound, "not_found")
	resp, body = getJSON(t, srv.URL+"/v2/jobs/job-999999/events")
	check(resp, body, http.StatusNotFound, "not_found")

	// method_not_allowed: /v1/stats now enforces GET.
	resp, body = postJSON(t, srv.URL+"/v1/stats", `{}`)
	check(resp, body, http.StatusMethodNotAllowed, "method_not_allowed")
	resp, err := http.Get(srv.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	check(resp, buf.Bytes(), http.StatusMethodNotAllowed, "method_not_allowed")

	// too_large: an oversized body is 413, not 400.
	huge := `{"topology":"` + strings.Repeat("x", 2<<20) + `"}`
	resp, body = postJSON(t, srv.URL+"/v1/optimize", huge)
	check(resp, body, http.StatusRequestEntityTooLarge, "too_large")
	resp, body = postJSON(t, srv.URL+"/v2/jobs", huge)
	check(resp, body, http.StatusRequestEntityTooLarge, "too_large")

	// GET /v1/stats still works, now reporting both sections.
	resp, body = getJSON(t, srv.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/stats: %d %s", resp.StatusCode, body)
	}
	var stats struct {
		Engine libra.EngineStats `json:"engine"`
		Jobs   libra.JobStats    `json:"jobs"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Errorf("stats decode: %v", err)
	}
	if stats.Engine.Workers == 0 {
		t.Errorf("stats engine section empty: %s", body)
	}
	if stats.Jobs.Capacity == 0 {
		t.Errorf("stats jobs section empty: %s", body)
	}
}
