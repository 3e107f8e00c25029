package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// capture is one distinct response body and how many ops received it.
// Bodies are kept (deduplicated) and checked after the timed phase, so
// checking never competes with the server for the CPU while it is timed.
// A job's answer is unique (it carries timestamps) and large, so only
// the part the gate checks is kept, decoded as it arrives.
type capture struct {
	op   *op
	body []byte
	job  *jobAnswer
	n    int
}

// jobAnswer is the part of a finished /v2/jobs/{id} the gate checks.
type jobAnswer struct {
	Status      string `json:"status"`
	Fingerprint string `json:"fingerprint"`
	Result      struct {
		Points []struct {
			BudgetGBps float64 `json:"budget_gbps"`
			engineAnswer
		} `json:"points"`
	} `json:"result"`
}

// jobTiming is what the client saw of one async job.
type jobTiming struct {
	submit, terminal time.Time
	// spans are the job's span events from the SSE stream.
	spans []spanEvent
}

type spanEvent struct {
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
}

// loadResult is one closed-loop phase over a plan's request lists.
type loadResult struct {
	// done holds the latency of each completed op.
	done      []time.Duration
	makespan  time.Duration
	attempted int
	failed    int
	failures  []string
	captures  map[[32]byte]*capture
}

func (r *loadResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// hooks let the traced replay observe each op without changing the
// generator: reqID tags the request, after runs once the answer is in.
type hooks struct {
	reqID func(loop, i int) string
	after func(loop, i int, o *op, latency time.Duration, body []byte, job *jobTiming)
}

// newClient is one closed-loop client: a single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// runLoad sends every loop's list through its own connection, waiting
// for each answer before the next request, and returns the timings.
// deadline bounds the phase; ops not sent by then count as failed.
func runLoad(ctx context.Context, baseURL string, loops [][]op, deadline time.Time, h *hooks) *loadResult {
	res := &loadResult{captures: map[[32]byte]*capture{}}
	var wg sync.WaitGroup
	per := make([]*loadResult, len(loops))
	start := time.Now()
	for li := range loops {
		per[li] = &loadResult{captures: map[[32]byte]*capture{}}
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			lr := per[li]
			client := newClient()
			defer client.CloseIdleConnections()
			for i := range loops[li] {
				o := &loops[li][i]
				lr.attempted++
				if time.Now().After(deadline) || ctx.Err() != nil {
					lr.fail("op %d/%d not sent: run deadline passed", li, i)
					continue
				}
				rid := ""
				if h != nil && h.reqID != nil {
					rid = h.reqID(li, i)
				}
				var body []byte
				var lat time.Duration
				var jt *jobTiming
				var err error
				if o.job != nil {
					jt = &jobTiming{}
					body, lat, err = doJob(ctx, client, baseURL, o, rid, jt, h != nil)
				} else {
					body, lat, err = doSync(ctx, client, baseURL, o, rid)
				}
				if err != nil {
					lr.fail("op %d/%d %s: %v", li, i, o.path, err)
					continue
				}
				lr.done = append(lr.done, lat)
				if h != nil && h.after != nil {
					h.after(li, i, o, lat, body, jt)
				}
				if o.job != nil {
					ans := &jobAnswer{}
					if err := json.Unmarshal(body, ans); err != nil {
						lr.fail("op %d/%d job answer: %v", li, i, err)
						continue
					}
					lr.captures[sha256.Sum256(body)] = &capture{op: o, job: ans, n: 1}
				} else if body != nil {
					key := sha256.Sum256(body)
					if c := lr.captures[key]; c != nil {
						c.n++
					} else {
						lr.captures[key] = &capture{op: o, body: body, n: 1}
					}
				}
			}
		}(li)
	}
	wg.Wait()
	res.makespan = time.Since(start)
	for _, lr := range per {
		res.done = append(res.done, lr.done...)
		res.attempted += lr.attempted
		res.failed += lr.failed
		res.failures = append(res.failures, lr.failures...)
		for k, c := range lr.captures {
			if prev := res.captures[k]; prev != nil {
				prev.n += c.n
			} else {
				res.captures[k] = c
			}
		}
	}
	return res
}

// doSync sends one synchronous request and checks status and ETag. It
// returns the body of a 200 (nil for the expected 304).
func doSync(ctx context.Context, client *http.Client, baseURL string, o *op, rid string) ([]byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+o.path, bytes.NewReader(o.body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if o.ifNoneMatch != "" {
		req.Header.Set("If-None-Match", o.ifNoneMatch)
	}
	if rid != "" {
		req.Header.Set("X-Request-Id", rid)
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	want := http.StatusOK
	if o.ifNoneMatch != "" {
		want = http.StatusNotModified
	}
	if resp.StatusCode != want {
		return nil, 0, fmt.Errorf("status %d, want %d: %.200s", resp.StatusCode, want, body)
	}
	if got := resp.Header.Get("ETag"); got != o.etag {
		return nil, 0, fmt.Errorf("ETag %s, want %s", got, o.etag)
	}
	if want == http.StatusNotModified {
		return nil, lat, nil
	}
	return body, lat, nil
}

// doJob submits a job, follows its SSE stream to the terminal event, and
// fetches the finished job. The latency is submit → terminal event.
func doJob(ctx context.Context, client *http.Client, baseURL string, o *op, rid string, jt *jobTiming, keepSpans bool) ([]byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+o.path, bytes.NewReader(o.body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if rid != "" {
		req.Header.Set("X-Request-Id", rid)
	}
	jt.submit = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	sub, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, 0, fmt.Errorf("submit status %d: %.200s", resp.StatusCode, sub)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(sub, &job); err != nil || job.ID == "" {
		return nil, 0, fmt.Errorf("submit answer without a job id: %.200s", sub)
	}
	status, err := followEvents(ctx, client, baseURL+"/v2/jobs/"+job.ID+"/events", rid, jt, keepSpans)
	if err != nil {
		return nil, 0, err
	}
	lat := jt.terminal.Sub(jt.submit)
	if status != "done" {
		return nil, 0, fmt.Errorf("job %s ended %s", job.ID, status)
	}
	greq, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v2/jobs/"+job.ID, nil)
	if err != nil {
		return nil, 0, err
	}
	if rid != "" {
		greq.Header.Set("X-Request-Id", rid)
	}
	gresp, err := client.Do(greq)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(gresp.Body)
	gresp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if gresp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("job GET status %d: %.200s", gresp.StatusCode, body)
	}
	if got := gresp.Header.Get("ETag"); got != o.etag {
		return nil, 0, fmt.Errorf("job ETag %s, want %s", got, o.etag)
	}
	return body, lat, nil
}

// followEvents reads an SSE stream until the terminal status event and
// returns that status; jt.terminal is when the client received it.
func followEvents(ctx context.Context, client *http.Client, url, rid string, jt *jobTiming, keepSpans bool) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	if rid != "" {
		req.Header.Set("X-Request-Id", rid)
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: ") && event == "status":
			var ev struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				return "", err
			}
			switch ev.Status {
			case "done", "failed", "cancelled":
				jt.terminal = time.Now()
				_, _ = io.Copy(io.Discard, resp.Body)
				return ev.Status, nil
			}
		case strings.HasPrefix(line, "data: ") && event == "span" && keepSpans:
			var ev struct {
				Span spanEvent `json:"span"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err == nil {
				jt.spans = append(jt.spans, ev.Span)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("event stream ended without a terminal status")
}

// wholeRun returns the run's throughput (completed ops ÷ makespan) and
// its p50 and tail latency (ms) over every completed op.
func wholeRun(r *loadResult, tailPct float64) (tput, p50, tail float64) {
	lat := append([]time.Duration(nil), r.done...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(len(lat)) / r.makespan.Seconds(), percentile(lat, 50), percentile(lat, tailPct)
}

// cpuTimes is the host's steal and total CPU time from /proc/stat.
type cpuTimes struct{ steal, total float64 }

func hostCPU() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var c cpuTimes
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// percentile is the nearest-rank percentile of sorted durations, in ms.
func percentile(sorted []time.Duration, pct float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(pct / 100 * float64(len(sorted)))
	if float64(rank) < pct/100*float64(len(sorted)) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	return ms(sorted[rank-1])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func pctLabel(p float64) string { return "p" + strconv.FormatFloat(p, 'f', -1, 64) }
