// Package server is libra-serve's HTTP layer: the /v2 task-envelope API
// (sync tasks, async jobs with SSE progress) plus the legacy /v1 per-kind
// endpoints, every one a thin shim over the same task.Run dispatch.
// cmd/libra-serve wires it to a listener; tests (and embedders) mount
// New directly.
//
// Every route is wrapped by one instrument middleware: it mints a trace
// ID per request (honoring a well-formed inbound X-Request-Id), echoes
// it back as the X-Request-Id response header, carries it on the request
// context for task dispatch and job submission, counts the request into
// the per-route/method/status series, times it into the per-route
// latency histogram, and emits one structured access-log line.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"libra/internal/core"
	"libra/internal/jobs"
	"libra/internal/task"
	"libra/internal/telemetry"
)

// Stable machine-readable error codes, shared by the v1 and v2 surfaces
// through the single writeError path. Clients branch on these, never on
// message text.
const (
	CodeBadSpec          = "bad_spec"
	CodeCancelled        = "cancelled"
	CodeUnavailable      = "unavailable"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeTooLarge         = "too_large"
	CodeTooManyJobs      = "too_many_jobs"
	CodeInternal         = "internal"
)

type server struct {
	engine  *core.Engine
	jobs    *jobs.Manager
	maxBody int64
	log     *slog.Logger
}

// Options configures the HTTP layer.
type Options struct {
	// Engine answers the tasks; required.
	Engine *core.Engine
	// Jobs runs the async /v2/jobs API; required.
	Jobs *jobs.Manager
	// MaxBody bounds request bodies in bytes.
	MaxBody int64
	// Logger receives access and error logs; nil selects slog.Default().
	Logger *slog.Logger
}

// New wires the full service surface onto a fresh mux — what main
// serves and what httptest drives are the same handler.
func New(opts Options) http.Handler {
	lg := opts.Logger
	if lg == nil {
		lg = slog.Default()
	}
	s := &server{engine: opts.Engine, jobs: opts.Jobs, maxBody: opts.MaxBody, log: lg}
	mux := http.NewServeMux()
	handle := func(route string, h http.HandlerFunc) {
		mux.Handle(route, s.instrument(route, h))
	}
	// v1: one shim per kind over the same dispatch v2 uses.
	for _, kind := range task.Kinds() {
		handle("/v1/"+string(kind), s.v1(kind))
	}
	handle("/v1/stats", s.handleStats)
	// v2: the task envelope, sync and async.
	handle("/v2/tasks", s.handleTasks)
	handle("/v2/jobs", s.handleJobs)
	handle("/v2/jobs/", s.handleJob)
	// Operational surface. /metrics is deliberately uninstrumented — a
	// scraper polling every few seconds would drown the request series
	// with its own traffic.
	mux.Handle("/metrics", telemetry.Default.Handler())
	handle("/healthz", s.handleHealthz)
	handle("/readyz", s.handleReadyz)
	return mux
}

// instrument is the per-route middleware: request-ID handling, request
// metrics, and the access log.
func (s *server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := telemetry.SanitizeRequestID(r.Header.Get("X-Request-Id"))
		if rid == "" {
			rid = telemetry.NewTraceID()
		}
		w.Header().Set("X-Request-Id", rid)
		r = r.WithContext(telemetry.WithTraceID(r.Context(), rid))

		sw := &statusWriter{ResponseWriter: w}
		telemetry.HTTPInFlight.Inc()
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		telemetry.HTTPInFlight.Dec()
		code := strconv.Itoa(sw.statusCode())
		telemetry.HTTPRequests.With(route, r.Method, code).Inc()
		telemetry.HTTPDuration.With(route).Observe(elapsed.Seconds())
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", sw.statusCode(),
			"duration_ms", float64(elapsed)/float64(time.Millisecond),
			"request_id", rid,
		)
	})
}

// statusWriter captures the response status for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// the SSE endpoint flushes through the instrumented writer.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

func (sw *statusWriter) statusCode() int {
	if sw.status == 0 {
		return http.StatusOK
	}
	return sw.status
}

// v1 builds the legacy per-kind handler: the body is exactly the
// envelope's kind payload, the answer exactly the payload /v2/tasks
// returns for that kind.
func (s *server) v1(kind task.Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		data, ok := s.readBody(w, r)
		if !ok {
			return
		}
		t, err := task.FromKindPayload(kind, data)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadSpec, err)
			return
		}
		s.runTask(w, r, t)
	}
}

// runTask answers one task synchronously — the shared tail of every v1
// shim and of POST /v2/tasks. The canonical fingerprint doubles as the
// response ETag, and a matching If-None-Match short-circuits to 304
// before any solving happens (see etag.go).
func (s *server) runTask(w http.ResponseWriter, r *http.Request, t *task.Task) {
	fp, fpErr := t.Fingerprint()
	if fpErr == nil && writeConditional(w, r, fp) {
		return
	}
	res, err := task.Run(r.Context(), s.engine, t)
	if err != nil {
		w.Header().Del("ETag")
		status, code := solveStatus(r, err)
		writeError(w, status, code, err)
		return
	}
	writeJSON(w, res)
}

// readBody enforces POST, reads at most maxBody bytes, and maps an
// oversized body to 413 Request Entity Too Large.
func (s *server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		writeMethodNotAllowed(w, http.MethodPost)
		return nil, false
	}
	return s.readLimitedBody(w, r)
}

// readLimitedBody is readBody minus the method check, for handlers that
// route methods themselves; the 400/413 error mapping exists only here.
func (s *server) readLimitedBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		status, code := http.StatusBadRequest, CodeBadSpec
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status, code = http.StatusRequestEntityTooLarge, CodeTooLarge
		}
		writeError(w, status, code, err)
		return nil, false
	}
	return data, true
}

// ServerStats is the GET /v1/stats payload: the engine's cache/load
// counters plus the job manager's retention state.
type ServerStats struct {
	Engine core.EngineStats `json:"engine"`
	Jobs   jobs.Stats       `json:"jobs"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeMethodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, ServerStats{Engine: s.engine.Stats(), Jobs: s.jobs.Stats()})
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeMethodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 when the engine accepts work
// and the job manager would accept a submission, 503 with the reason
// otherwise.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeMethodNotAllowed(w, http.MethodGet)
		return
	}
	if err := s.engine.Ready(); err != nil {
		writeJSONStatus(w, http.StatusServiceUnavailable, map[string]string{"status": "unavailable", "reason": err.Error()})
		return
	}
	if err := s.jobs.Ready(); err != nil {
		writeJSONStatus(w, http.StatusServiceUnavailable, map[string]string{"status": "unavailable", "reason": err.Error()})
		return
	}
	writeJSON(w, map[string]string{"status": "ready"})
}

// solveStatus maps a solve error to HTTP status and code: bad specs are
// the caller's fault (400), cancellations follow the client disconnect
// (408) or server shutdown (503), and anything else is a solver-side 500.
func solveStatus(r *http.Request, err error) (int, string) {
	switch {
	case errors.Is(err, core.ErrBadSpec):
		return http.StatusBadRequest, CodeBadSpec
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		if r.Context().Err() != nil {
			return http.StatusRequestTimeout, CodeCancelled
		}
		return http.StatusServiceUnavailable, CodeUnavailable
	default:
		return http.StatusInternalServerError, CodeInternal
	}
}

func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

// respBufs pools the indent buffers of writeJSONStatus; a buffer grown
// past maxPooledResp by an outsized response is left to the collector.
var respBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledResp = 1 << 20

// writeJSONStatus writes v as two-space-indented JSON with a trailing
// newline — the bytes json.Encoder with SetIndent("", "  ") writes —
// marshalled once and indented into a pooled buffer. A value that fails
// to marshal leaves the body empty.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(v)
	if err != nil {
		slog.Error("response encode failed", "error", err)
		return
	}
	buf := respBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if err = json.Indent(buf, data, "", "  "); err == nil {
		buf.WriteByte('\n')
		_, err = w.Write(buf.Bytes())
	}
	if err != nil {
		slog.Error("response encode failed", "error", err)
	}
	if buf.Cap() <= maxPooledResp {
		respBufs.Put(buf)
	}
}

func writeMethodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use %s", allow))
}

// writeError is the one error path of both API versions: a JSON envelope
// with the human message and the stable machine code.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}{err.Error(), code})
}
