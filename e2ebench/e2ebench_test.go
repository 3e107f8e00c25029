package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// The self-tests run every workload at tiny scale against the in-process
// server stack (server.New over a real engine, job manager and store),
// so they need no build of cmd/libra-serve. Run them from this directory:
//
//	go test ./...
//
// They run sequentially: the telemetry registry is process-wide, and the
// gate's shape checks read its counter deltas.

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinyRun runs a workload at tiny scale in-process.
func tinyRun(t *testing.T, name string, trace bool, stack inProcess) *runOutput {
	t.Helper()
	def, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{
		def:       def,
		seed:      7,
		seconds:   1,
		trace:     trace,
		buildDir:  t.TempDir(),
		scale:     0.05,
		setupReps: 2,
		launch:    stack.launcher,
	}
	out, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Every defined workload is run, listed in BENCHMARK.json or not: the
// traced runs of the listed ones borrow layer metrics from the others.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := loadBenchSpec(t)
	for _, w := range spec.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			out := tinyRun(t, w.name, trace, inProcess{})
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.name, trace, out.Correct, out.Attempted, out.Failed, out.failures)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// tamper rewrites one BW value of every answer carrying one, keeping the
// JSON valid and the ETag unchanged.
func tamper(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if i := bytes.Index(body, []byte(`"bw": [`)); i >= 0 {
			j := i + len(`"bw": [`)
			for j < len(body) && (body[j] < '0' || body[j] > '9') {
				j++
			}
			if j < len(body) {
				body[j] = '0' + (body[j]-'0'+1)%10
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = io.Copy(w, bytes.NewReader(body))
	})
}

func TestGateTripsOnTamperedAnswer(t *testing.T) {
	out := tinyRun(t, "hot-sweeps", false, inProcess{wrap: tamper})
	if out.Correct || out.Failed == 0 {
		t.Fatalf("a perturbed BW value passed the gate: correct=%v failed=%d", out.Correct, out.Failed)
	}
	if !anyContains(out.failures, "differs from the library") {
		t.Errorf("no bit-identity failure among %q", out.failures)
	}
}

func TestGateTripsOnShapeViolation(t *testing.T) {
	// With the LRU disabled every hot-sweeps cell is solved again: the
	// zero-solve check must fail the run.
	out := tinyRun(t, "hot-sweeps", false, inProcess{cacheSize: -1})
	if out.Correct || out.Failed == 0 {
		t.Fatalf("hot-sweeps without a cache passed the gate: correct=%v failed=%d", out.Correct, out.Failed)
	}
	if !anyContains(out.failures, "shape:") {
		t.Errorf("no shape failure among %q", out.failures)
	}
}

func anyContains(list []string, sub string) bool {
	for _, s := range list {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestPlansAreSeeded(t *testing.T) {
	for _, def := range workloadDefs {
		a, err := makePlan(def, 3, 1, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePlan(def, 3, 1, 0.05)
		c, _ := makePlan(def, 4, 1, 0.05)
		if !samePlan(a, b) {
			t.Errorf("%s: one seed gave two request lists", def.name)
		}
		if samePlan(a, c) {
			t.Errorf("%s: two seeds gave one request list", def.name)
		}
	}
}

func samePlan(a, b *plan) bool {
	if len(a.loops) != len(b.loops) {
		return false
	}
	for i := range a.loops {
		if len(a.loops[i]) != len(b.loops[i]) {
			return false
		}
		for j := range a.loops[i] {
			if !bytes.Equal(a.loops[i][j].body, b.loops[i][j].body) || a.loops[i][j].ifNoneMatch != b.loops[i][j].ifNoneMatch {
				return false
			}
		}
	}
	return true
}
