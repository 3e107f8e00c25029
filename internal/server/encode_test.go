package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"libra/internal/core"
	"libra/internal/frontier"
	"libra/internal/jobs"
	"libra/internal/task"
)

// encoderBytes is what writeJSONStatus wrote before it pooled its
// buffer: a json.Encoder with two-space indentation.
func encoderBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeJSONStatus must write exactly the Encoder's bytes for every shape
// the API serves.
func TestWriteJSONStatusMatchesEncoder(t *testing.T) {
	e := core.NewEngine(core.EngineConfig{Workers: 1})
	defer e.Close()
	m := jobs.NewManager(jobs.Config{Engine: e})
	defer m.Close()
	spec := &core.ProblemSpec{
		Topology:   "RI(4)_SW(8)",
		BudgetGBps: 200,
		Workloads:  []core.WorkloadSpec{{Preset: "DLRM"}},
	}
	snap, err := m.Submit(context.Background(), task.NewFrontier(spec, frontier.Request{Budgets: []float64{100, 200, 400}}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	job, err := m.Wait(ctx, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != jobs.StatusDone {
		t.Fatalf("frontier job %s: %s", job.Status, job.Error)
	}

	cases := []struct {
		name string
		v    any
	}{
		{"frontier job", job},
		{"html escaping", map[string]string{"s": `<script>alert("x&y")</script>`, "u": "line\u2028sep\u2029"}},
		{"empty slices", struct {
			A []int    `json:"a"`
			B []string `json:"b"`
			N []int    `json:"n"`
		}{A: []int{}, B: []string{}}},
		{"empty maps", struct {
			A map[string]int `json:"a"`
			N map[string]int `json:"n"`
			E struct{}       `json:"e"`
		}{A: map[string]int{}}},
		{"scalar", 1.5e300},
	}
	for _, tc := range cases {
		// Twice, so the second write reuses a pooled buffer.
		for i := 0; i < 2; i++ {
			rec := httptest.NewRecorder()
			writeJSONStatus(rec, http.StatusAccepted, tc.v)
			if rec.Code != http.StatusAccepted || rec.Header().Get("Content-Type") != "application/json" {
				t.Errorf("%s: status %d, content type %q", tc.name, rec.Code, rec.Header().Get("Content-Type"))
			}
			if want := encoderBytes(t, tc.v); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s: body differs from the Encoder's\ngot:  %q\nwant: %q", tc.name, rec.Body.Bytes(), want)
			}
		}
	}
}
