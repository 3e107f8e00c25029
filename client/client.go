// Package client is the typed Go SDK for a libra-serve /v2 endpoint:
// submit task envelopes synchronously (Do) or as asynchronous jobs
// (Submit), follow a job's ordered status/progress events to its result
// (Watch; a nil callback just awaits it), cancel (Cancel), page the job
// listing (Jobs), and probe the server (Health) — all context-aware, with
// bounded retry of transient failures on idempotent requests.
//
//	c := client.New("http://localhost:8080")
//	job, _ := c.Submit(ctx, libra.NewFrontierTask(spec, req))
//	final, _ := c.Watch(ctx, job.ID, func(ev client.Event) {
//	    if ev.Progress != nil {
//	        fmt.Printf("%s %d/%d\n", ev.Progress.Stage, ev.Progress.Done, ev.Progress.Total)
//	    }
//	})
//	frontier, _ := final.TaskResult().Frontier()
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"libra"
	"libra/internal/jobs"
	"libra/internal/server"
	"libra/internal/task"
	"libra/internal/telemetry"
)

// Task aliases the envelope type (libra.Task); build values with the
// libra.New*Task constructors.
type Task = task.Task

// JobStatus aliases the job lifecycle state (libra.JobStatus).
type JobStatus = jobs.Status

// Event is one server-sent job event: a status transition or a progress
// observation, in log order.
type Event = jobs.Event

// Job is the wire form of a job snapshot. Unlike the server-side
// libra.Job, Result stays raw JSON — decode it with TaskResult.
type Job struct {
	ID          string           `json:"id"`
	Kind        task.Kind        `json:"kind"`
	Fingerprint string           `json:"fingerprint,omitempty"`
	TraceID     string           `json:"trace_id,omitempty"`
	Status      JobStatus        `json:"status"`
	Created     time.Time        `json:"created"`
	Started     *time.Time       `json:"started,omitempty"`
	Finished    *time.Time       `json:"finished,omitempty"`
	Progress    []libra.Progress `json:"progress,omitempty"`
	Events      int              `json:"events"`
	Error       string           `json:"error,omitempty"`
	Result      json.RawMessage  `json:"result,omitempty"`
}

// TaskResult pairs a done job's raw result with its kind for typed
// decoding; nil when the job is not done.
func (j *Job) TaskResult() *TaskResult {
	if j == nil || j.Status != jobs.StatusDone || len(j.Result) == 0 {
		return nil
	}
	return &TaskResult{Kind: j.Kind, Raw: j.Result}
}

// JobList is one page of the job listing.
type JobList struct {
	Jobs  []*Job `json:"jobs"`
	Total int    `json:"total"`
}

// ListOptions selects and pages the job listing.
type ListOptions struct {
	Status JobStatus
	Offset int
	Limit  int
}

// TaskResult is a task's result payload with typed accessors per kind.
type TaskResult struct {
	Kind task.Kind
	Raw  json.RawMessage
	// ETag is the response's entity tag (the task's canonical
	// fingerprint, quoted) — pass it to DoConditional to revalidate this
	// result for free instead of re-downloading it.
	ETag string
}

// Decode unmarshals the raw payload into v.
func (r *TaskResult) Decode(v any) error {
	if r == nil {
		return fmt.Errorf("client: no result")
	}
	return json.Unmarshal(r.Raw, v)
}

// decodeAs decodes the result through the task registry (the type
// task.Run returns for r.Kind) and checks that it is a T, guarding the
// typed accessors against cross-kind decoding.
func decodeAs[T any](r *TaskResult) (T, error) {
	var out T
	if r == nil {
		return out, fmt.Errorf("client: no result")
	}
	v, err := task.DecodeResult(r.Kind, r.Raw)
	if err != nil {
		return out, err
	}
	out, ok := v.(T)
	if !ok {
		return out, fmt.Errorf("client: %s result cannot decode as %T", r.Kind, out)
	}
	return out, nil
}

// Engine decodes an optimize/evaluate result.
func (r *TaskResult) Engine() (libra.EngineResult, error) { return decodeAs[libra.EngineResult](r) }

// Sweep decodes a sweep result.
func (r *TaskResult) Sweep() (*libra.SweepTaskResult, error) {
	return decodeAs[*libra.SweepTaskResult](r)
}

// Frontier decodes a frontier result.
func (r *TaskResult) Frontier() (*libra.FrontierResult, error) {
	return decodeAs[*libra.FrontierResult](r)
}

// CoDesign decodes a codesign report.
func (r *TaskResult) CoDesign() (*libra.CoDesignReport, error) {
	return decodeAs[*libra.CoDesignReport](r)
}

// Validation decodes a validate report.
func (r *TaskResult) Validation() (*libra.ValidationReport, error) {
	return decodeAs[*libra.ValidationReport](r)
}

// Cluster decodes a cluster report.
func (r *TaskResult) Cluster() (*libra.ClusterReport, error) {
	return decodeAs[*libra.ClusterReport](r)
}

// APIError is a non-2xx response: the HTTP status plus the server's
// stable machine code and human message. Branch on Code, not Message.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("libra API: %s (%s, HTTP %d)", e.Message, e.Code, e.StatusCode)
}

// Temporary reports whether retrying the identical request may succeed.
func (e *APIError) Temporary() bool {
	switch e.StatusCode {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying *http.Client.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times idempotent requests are retried on
// transient failures (default 3; 0 disables).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithRetryBackoff sets the base backoff doubled per attempt (default
// 100ms).
func WithRetryBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// Client speaks to one libra-serve base URL. Safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
}

// New builds a Client for a base URL like "http://localhost:8080".
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      &http.Client{},
		retries: 3,
		backoff: 100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do issues one request, retrying transient failures (network errors and
// retryable HTTP statuses) when idempotent is set. POST bodies are byte
// slices, so every attempt resends identical bytes.
func (c *Client) do(ctx context.Context, method, path string, body []byte, idempotent bool, out any) error {
	_, _, err := c.request(ctx, method, path, body, idempotent, nil, out)
	return err
}

// request is do with the response status and headers surfaced (for
// conditional requests) and extra request headers injected. A 304 Not
// Modified is a success that leaves out untouched.
func (c *Client) request(ctx context.Context, method, path string, body []byte, idempotent bool, hdr map[string]string, out any) (int, http.Header, error) {
	var lastErr error
	var lastStatus int
	var lastHeader http.Header
	attempts := 1
	if idempotent {
		attempts += c.retries
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(c.backoff << (attempt - 1)):
			case <-ctx.Done():
				return lastStatus, lastHeader, ctx.Err()
			}
		}
		status, header, err := c.once(ctx, method, path, body, hdr, out)
		if err == nil {
			return status, header, nil
		}
		lastErr, lastStatus, lastHeader = err, status, header
		if ctx.Err() != nil {
			return status, header, err
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) && !apiErr.Temporary() {
			return status, header, err // definitive server answer; retrying cannot help
		}
	}
	return lastStatus, lastHeader, lastErr
}

func (c *Client) once(ctx context.Context, method, path string, body []byte, hdr map[string]string, out any) (int, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	// A trace ID on the context (libra.WithTraceID) becomes the request's
	// X-Request-Id, so server-side logs, metrics, and job spans correlate
	// back to this call.
	if id := telemetry.TraceID(ctx); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, resp.Header, err
	}
	if resp.StatusCode == http.StatusNotModified {
		return resp.StatusCode, resp.Header, nil
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp.StatusCode, resp.Header, decodeAPIError(resp.StatusCode, data)
	}
	if out == nil {
		return resp.StatusCode, resp.Header, nil
	}
	return resp.StatusCode, resp.Header, json.Unmarshal(data, out)
}

func decodeAPIError(status int, data []byte) *APIError {
	e := &APIError{StatusCode: status, Code: "internal"}
	var body struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		e.Message, e.Code = body.Error, body.Code
	} else {
		e.Message = strings.TrimSpace(string(data))
	}
	if e.Message == "" {
		e.Message = http.StatusText(status)
	}
	return e
}

// Do runs the task synchronously through POST /v2/tasks and returns its
// result payload. Not retried: a non-idempotent solve should fail loudly
// rather than run twice.
func (c *Client) Do(ctx context.Context, t *Task) (*TaskResult, error) {
	res, _, err := c.DoConditional(ctx, t, "")
	return res, err
}

// DoConditional is Do with revalidation: when etag is the entity tag of
// a previously fetched result for this task (TaskResult.ETag), the
// request carries If-None-Match and a server-side fingerprint match
// answers 304 without solving or resending the payload — notModified is
// true and the result nil, so keep using the copy you already hold. An
// empty etag behaves exactly like Do.
func (c *Client) DoConditional(ctx context.Context, t *Task, etag string) (res *TaskResult, notModified bool, err error) {
	body, err := json.Marshal(t)
	if err != nil {
		return nil, false, err
	}
	var hdr map[string]string
	if etag != "" {
		hdr = map[string]string{"If-None-Match": etag}
	}
	var raw json.RawMessage
	status, header, err := c.request(ctx, http.MethodPost, "/v2/tasks", body, false, hdr, &raw)
	if err != nil {
		return nil, false, err
	}
	if status == http.StatusNotModified {
		return nil, true, nil
	}
	return &TaskResult{Kind: t.Kind, Raw: raw, ETag: header.Get("ETag")}, false, nil
}

// Submit enqueues the task through POST /v2/jobs and returns the job
// snapshot (status pending or running).
func (c *Client) Submit(ctx context.Context, t *Task) (*Job, error) {
	body, err := json.Marshal(t)
	if err != nil {
		return nil, err
	}
	var job Job
	if err := c.do(ctx, http.MethodPost, "/v2/jobs", body, false, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Job fetches one job snapshot (result included when done).
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodGet, "/v2/jobs/"+url.PathEscape(id), nil, true, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Jobs pages the job listing newest-first.
func (c *Client) Jobs(ctx context.Context, opts ListOptions) (*JobList, error) {
	q := url.Values{}
	if opts.Status != "" {
		q.Set("status", string(opts.Status))
	}
	if opts.Offset > 0 {
		q.Set("offset", strconv.Itoa(opts.Offset))
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	path := "/v2/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var list JobList
	if err := c.do(ctx, http.MethodGet, path, nil, true, &list); err != nil {
		return nil, err
	}
	return &list, nil
}

// Cancel cancels a job through DELETE /v2/jobs/{id}; on a terminal job
// it is a no-op returning the current snapshot.
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodDelete, "/v2/jobs/"+url.PathEscape(id), nil, true, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Watch streams the job's ordered event log over SSE, invoking onEvent
// for every entry (status transitions and progress observations), and
// returns the final snapshot once a terminal status event arrives. A
// dropped stream resumes from the last seen seq — onEvent never sees a
// duplicate or a gap — and a live job is never abandoned: between
// reconnects the job is polled, so Watch ends only at a terminal state,
// a definitive API error, or ctx cancellation. onEvent may be nil to
// just await completion.
func (c *Client) Watch(ctx context.Context, id string, onEvent func(Event)) (*Job, error) {
	lastSeq := 0
	delay := c.backoff
	if delay <= 0 {
		delay = 50 * time.Millisecond
	}
	base := delay
	for {
		prevSeq := lastSeq
		terminal, err := c.watchOnce(ctx, id, &lastSeq, onEvent)
		if terminal {
			return c.Job(ctx, id)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var apiErr *APIError
		if err != nil && errors.As(err, &apiErr) && !apiErr.Temporary() {
			return nil, err
		}
		// The stream dropped without a terminal event (an idle proxy
		// timeout on a long quiet job, a transient hiccup). Confirm the
		// job is still live — it may have finished while we were
		// disconnected — then resume from lastSeq. Job retries transient
		// failures itself, so an error here is definitive.
		job, jerr := c.Job(ctx, id)
		if jerr != nil {
			return nil, jerr
		}
		if job.Status.Terminal() {
			return job, nil
		}
		if lastSeq > prevSeq {
			delay = base // progress before the drop: reconnection is working
		} else if delay < time.Second {
			delay *= 2
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// watchOnce consumes one SSE connection, reporting whether a terminal
// status event arrived.
func (c *Client) watchOnce(ctx context.Context, id string, lastSeq *int, onEvent func(Event)) (bool, error) {
	path := fmt.Sprintf("%s/v2/jobs/%s/events?from=%d", c.base, url.PathEscape(id), *lastSeq)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return false, decodeAPIError(resp.StatusCode, data)
	}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data strings.Builder
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data.WriteString(strings.TrimPrefix(line, "data: "))
		case line == "":
			if data.Len() == 0 {
				continue
			}
			var ev Event
			if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
				return false, fmt.Errorf("client: malformed event: %w", err)
			}
			data.Reset()
			if ev.Seq <= *lastSeq {
				continue // replay overlap after a reconnect
			}
			*lastSeq = ev.Seq
			if onEvent != nil {
				onEvent(ev)
			}
			if ev.Type == jobs.EventStatus && ev.Status.Terminal() {
				return true, nil
			}
		}
	}
	return false, scanner.Err()
}

// ServerStats is the GET /v1/stats payload: the engine's cache/load
// counters plus the job manager's retention state.
type ServerStats = server.ServerStats

// Stats fetches the server's counters from GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (ServerStats, error) {
	var out ServerStats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, true, &out)
	return out, err
}

// Health is the combined probe answer: Live mirrors /healthz, Ready
// mirrors /readyz (Reason carries the server's explanation when not).
type Health struct {
	Live   bool   `json:"live"`
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
}

// Health probes both /healthz and /readyz. A reachable-but-not-ready
// server is not an error — Health.Ready is false and Reason says why;
// the error return is reserved for an unreachable or broken server. The
// /healthz leg retries transient failures, so a loop over Health also
// waits for a just-started server to come up.
func (c *Client) Health(ctx context.Context) (Health, error) {
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, true, nil); err != nil {
		return Health{}, err
	}
	h := Health{Live: true}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return h, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return h, err
	}
	var body struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	_ = json.Unmarshal(data, &body)
	h.Ready = resp.StatusCode == http.StatusOK
	h.Reason = body.Reason
	return h, nil
}
