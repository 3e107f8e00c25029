package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_requests_total", "requests.")
	g := r.NewGauge("t_inflight", "in flight.")
	c.Inc()
	c.Add(2)
	g.Inc()
	g.Add(4)
	g.Dec()
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
	out := render(r)
	for _, want := range []string{
		"# HELP t_requests_total requests.\n",
		"# TYPE t_requests_total counter\n",
		"t_requests_total 3\n",
		"# TYPE t_inflight gauge\n",
		"t_inflight 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 7.5
	r.NewGaugeFunc("t_fn", "callback.", func() float64 { return v })
	if out := render(r); !strings.Contains(out, "t_fn 7.5\n") {
		t.Errorf("gauge func not rendered:\n%s", out)
	}
	v = 9
	if out := render(r); !strings.Contains(out, "t_fn 9\n") {
		t.Errorf("gauge func not re-evaluated at scrape:\n%s", out)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_lat_seconds", "latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	out := render(r)
	for _, want := range []string{
		`t_lat_seconds_bucket{le="0.1"} 1`,
		`t_lat_seconds_bucket{le="1"} 3`,
		`t_lat_seconds_bucket{le="10"} 4`,
		`t_lat_seconds_bucket{le="+Inf"} 5`,
		"t_lat_seconds_sum 56.05",
		"t_lat_seconds_count 5",
		"# TYPE t_lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryLandsInBucket(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_b", "b.", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive, Prometheus semantics
	if out := render(r); !strings.Contains(out, `t_b_bucket{le="1"} 1`) {
		t.Errorf("boundary observation not in its bucket:\n%s", out)
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("t_req_total", "by route.", "route", "code")
	v.With("/v1/optimize", "200").Add(2)
	v.With("/v1/optimize", "400").Inc()
	v.With("/v2/jobs", "202").Inc()
	out := render(r)
	for _, want := range []string{
		`t_req_total{route="/v1/optimize",code="200"} 2`,
		`t_req_total{route="/v1/optimize",code="400"} 1`,
		`t_req_total{route="/v2/jobs",code="202"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Same label values return the same child.
	if v.With("/v2/jobs", "202").Value() != 1 {
		t.Error("vec child not shared across With calls")
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("t_dur_seconds", "by kind.", []float64{1}, "kind")
	v.With("optimize").Observe(0.5)
	v.With("optimize").Observe(2)
	out := render(r)
	for _, want := range []string{
		`t_dur_seconds_bucket{kind="optimize",le="1"} 1`,
		`t_dur_seconds_bucket{kind="optimize",le="+Inf"} 2`,
		`t_dur_seconds_sum{kind="optimize"} 2.5`,
		`t_dur_seconds_count{kind="optimize"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("t_esc", "escaping.", "path")
	v.With("a\"b\\c\nd").Inc()
	if out := render(r); !strings.Contains(out, `t_esc{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("t_dup", "one.")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.NewCounter("t_dup", "two.")
}

func TestVecWrongLabelCountPanics(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("t_bad", "b.", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label count did not panic")
		}
	}()
	v.With("only-one")
}

func TestHandlerServesTextFormat(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("t_served", "served.").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(sb.String(), "t_served 1\n") {
		t.Errorf("body missing sample:\n%s", sb.String())
	}

	// Non-GET is rejected.
	post, err := http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST: %d, want 405", post.StatusCode)
	}
}

// TestConcurrentRegistryStress hammers every metric shape from many
// goroutines while scraping concurrently — the race-gated correctness
// test of the lock discipline.
func TestConcurrentRegistryStress(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_sc", "c.")
	g := r.NewGauge("t_sg", "g.")
	h := r.NewHistogram("t_sh", "h.", nil)
	cv := r.NewCounterVec("t_scv", "cv.", "k")
	hv := r.NewHistogramVec("t_shv", "hv.", nil, "k")
	r.NewGaugeFunc("t_sgf", "gf.", func() float64 { return float64(g.Value()) })

	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	keys := []string{"a", "b", "c"}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Inc()
				h.Observe(float64(i) / 100)
				cv.With(keys[i%len(keys)]).Inc()
				hv.With(keys[(i+w)%len(keys)]).Observe(0.01)
				if i%100 == 0 {
					render(r)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
	total := uint64(0)
	for _, k := range keys {
		total += cv.With(k).Value()
	}
	if total != workers*iters {
		t.Fatalf("vec total = %d, want %d", total, workers*iters)
	}
}

func TestDefaultCatalogRegistered(t *testing.T) {
	out := render(Default)
	for _, name := range []string{
		"libra_http_requests_total",
		"libra_http_request_duration_seconds",
		"libra_tasks_total",
		"libra_engine_cache_hits_total",
		"libra_engine_solve_duration_seconds",
		"libra_solver_starts_total",
		"libra_solver_cd_iterations_total",
		"libra_sweep_points_total",
		"libra_jobs_submitted_total",
	} {
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Errorf("default catalog missing %s", name)
		}
	}
}

func render(r *Registry) string {
	var sb strings.Builder
	r.WritePrometheus(&sb)
	return sb.String()
}
