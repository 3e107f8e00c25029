package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"libra/internal/core"
	"libra/internal/jobs"
	"libra/internal/task"
	"libra/internal/telemetry"
)

// handleTasks is POST /v2/tasks: run one task envelope synchronously and
// answer with exactly the payload the matching /v1 endpoint returns.
func (s *server) handleTasks(w http.ResponseWriter, r *http.Request) {
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	t, err := task.Parse(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadSpec, err)
		return
	}
	s.runTask(w, r, t)
}

// handleJobs is POST /v2/jobs (submit) and GET /v2/jobs (paginated
// listing).
func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		data, ok := s.readLimitedBody(w, r)
		if !ok {
			return
		}
		t, err := task.Parse(data)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadSpec, err)
			return
		}
		job, err := s.jobs.Submit(r.Context(), t)
		if err != nil {
			status, code := jobStatus(err)
			writeError(w, status, code, err)
			return
		}
		w.Header().Set("Location", "/v2/jobs/"+job.ID)
		writeJSONStatus(w, http.StatusAccepted, job)
	case http.MethodGet:
		q := r.URL.Query()
		req := jobs.ListRequest{Status: jobs.Status(q.Get("status"))}
		var err error
		if req.Offset, err = queryInt(q.Get("offset")); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadSpec, fmt.Errorf("offset: %w", err))
			return
		}
		if req.Limit, err = queryInt(q.Get("limit")); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadSpec, fmt.Errorf("limit: %w", err))
			return
		}
		writeJSON(w, s.jobs.List(req))
	default:
		writeMethodNotAllowed(w, "GET, POST")
	}
}

// handleJob routes /v2/jobs/{id} (GET snapshot, DELETE cancel) and
// /v2/jobs/{id}/events (SSE stream).
func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v2/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" || (sub != "" && sub != "events") {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("no such resource %q", r.URL.Path))
		return
	}
	if sub == "events" {
		if r.Method != http.MethodGet {
			writeMethodNotAllowed(w, http.MethodGet)
			return
		}
		s.streamJobEvents(w, r, id)
		return
	}
	switch r.Method {
	case http.MethodGet:
		job, err := s.jobs.Get(id)
		if err != nil {
			status, code := jobStatus(err)
			writeError(w, status, code, err)
			return
		}
		// A successfully finished job's payload is determined by its task
		// fingerprint, so it revalidates like a sync result. Non-done
		// snapshots still change (progress, status) and stay untagged.
		if job.Status == jobs.StatusDone && writeConditional(w, r, job.Fingerprint) {
			return
		}
		writeJSON(w, job)
	case http.MethodDelete:
		job, err := s.jobs.Cancel(id)
		if err != nil {
			status, code := jobStatus(err)
			writeError(w, status, code, err)
			return
		}
		writeJSON(w, job)
	default:
		writeMethodNotAllowed(w, "GET, DELETE")
	}
}

// streamJobEvents is GET /v2/jobs/{id}/events: the job's ordered event
// log as Server-Sent Events — replayed from the start, then followed
// live until the log is complete (the terminal status event always ends
// the stream). Each event is `event: status|progress`, `id: <seq>`,
// `data: <Event JSON>`. A `?from=<seq>` query resumes after a previously
// seen seq; past the end of a terminal job's log it ends at once.
func (s *server) streamJobEvents(w http.ResponseWriter, r *http.Request, id string) {
	from, err := queryInt(r.URL.Query().Get("from"))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadSpec, fmt.Errorf("from: %w", err))
		return
	}
	// Fail before committing to the event-stream content type.
	if _, _, err := s.jobs.EventsSince(id, from); err != nil {
		status, code := jobStatus(err)
		writeError(w, status, code, err)
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	if err := rc.Flush(); err != nil {
		return
	}

	telemetry.JobWatchers.Inc()
	defer telemetry.JobWatchers.Dec()

	idx := from
	for {
		// more is nil once the log is complete: this read is the last.
		events, more, err := s.jobs.EventsSince(id, idx)
		if err != nil {
			// Evicted mid-stream: nothing further will arrive.
			return
		}
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				// An unencodable event poisons the whole stream: log it and
				// drop this watcher rather than ship a gap silently.
				s.log.Error("sse encode failed, closing stream",
					"job", id, "seq", ev.Seq, "error", err)
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, data); err != nil {
				// The watcher's connection is gone; unwinding unregisters it.
				s.log.Debug("sse write failed, closing stream",
					"job", id, "seq", ev.Seq, "error", err)
				return
			}
		}
		idx += len(events)
		if err := rc.Flush(); err != nil || more == nil {
			return
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

// jobStatus maps job-manager errors onto (HTTP status, code).
func jobStatus(err error) (int, string) {
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		return http.StatusNotFound, CodeNotFound
	case errors.Is(err, jobs.ErrFull):
		return http.StatusTooManyRequests, CodeTooManyJobs
	case errors.Is(err, jobs.ErrClosed):
		return http.StatusServiceUnavailable, CodeUnavailable
	case errors.Is(err, core.ErrBadSpec):
		return http.StatusBadRequest, CodeBadSpec
	default:
		return http.StatusInternalServerError, CodeInternal
	}
}

func queryInt(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("want a non-negative integer, got %q", s)
	}
	return v, nil
}
