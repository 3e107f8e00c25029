// Command e2ebench is libra-serve's end-to-end and per-layer benchmark.
//
// It builds on the real cmd/libra-serve, started as a separate process on
// loopback, and drives one named workload from closed-loop clients that
// send a fixed list of requests generated from --seed. Every answer is
// checked against the in-process library. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (what a client and an
// operator of the server see); with --trace 1 the run also replays the
// same inputs in-process through the layers' public functions and reports
// the per-layer metrics instead. --steady N runs the workload N times with
// consecutive seeds and prints each end-to-end metric's spread next to its
// bound in BENCHMARK.json. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is one benchmark run.
type runConfig struct {
	def      workloadDef
	seed     int64
	seconds  float64
	trace    bool
	buildDir string
	// scale shrinks the plan (self-tests); 1 for the benchmark.
	scale float64
	// setupReps is how many times set-up is timed; the median is reported.
	setupReps int
	// launch starts the server under test for a plan.
	launch func(*plan) launcher
}

// setupReps is how many times a benchmark run times set-up; the median
// is reported as setup_s.
const setupReps = 9

// runOutput is what a run prints.
type runOutput struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	stamp    map[string]any
	failures []string
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: cold-solve | hot-sweeps | disk-restart | study-jobs")
		seed     = flag.Int64("seed", 1, "seed the request list is generated from")
		seconds  = flag.Float64("seconds", 15, "intended length of the timed phase; sizes the request list")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from an in-process traced replay")
		root     = flag.String("root", ".", "repository checkout the benchmark runs in")
		serveBin = flag.String("serve-bin", "", "built cmd/libra-serve binary")
		steady   = flag.Int("steady", 0, "run the workload this many times (seeds seed, seed+1, ...) and report each metric's spread")
	)
	flag.Parse()
	def, err := lookupWorkload(*workload)
	if err != nil {
		fatal(err)
	}
	if *serveBin == "" {
		fatal(fmt.Errorf("-serve-bin is required (run through run.sh)"))
	}
	cfg := runConfig{
		def:       def,
		seed:      *seed,
		seconds:   *seconds,
		trace:     *trace == 1,
		buildDir:  filepath.Join(*root, ".bench_build"),
		scale:     1,
		setupReps: setupReps,
		launch:    func(p *plan) launcher { return processLauncher(*serveBin, p) },
	}
	if *steady > 0 {
		if err := steadyReport(cfg, *steady, filepath.Join(*root, "BENCHMARK.json")); err != nil {
			fatal(err)
		}
		return
	}
	out, err := run(context.Background(), cfg)
	if err != nil {
		fatal(err)
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	stamp, _ := json.Marshal(map[string]any{"stamp": out.stamp})
	fmt.Println(string(stamp))
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// run performs one benchmark run: the untraced end-to-end phase against
// the server under test, then (trace mode) the in-process traced replay.
func run(ctx context.Context, cfg runConfig) (*runOutput, error) {
	p, err := makePlan(cfg.def, cfg.seed, cfg.seconds, cfg.scale)
	if err != nil {
		return nil, err
	}
	e2e, err := measure(ctx, cfg, p, cfg.launch(p), nil)
	if err != nil {
		return nil, err
	}
	out := &runOutput{
		Attempted: e2e.load.attempted,
		Failed:    e2e.load.failed,
		Metrics:   e2e.metrics,
		failures:  e2e.load.failures,
		stamp:     stamp(cfg, p, e2e),
	}
	if cfg.trace {
		layers, err := traceRun(ctx, cfg, p, e2e)
		if err != nil {
			return nil, err
		}
		out.Attempted += layers.attempted
		out.Failed += layers.failed
		out.failures = append(out.failures, layers.failures...)
		out.Metrics = layers.metrics
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// phase is one measured pass of a plan against a server.
type phase struct {
	load    *loadResult
	metrics map[string]metric
	// mem and before/after bracket the timed request lists: /debug/vars
	// memstats and /metrics series.
	mem           [2]memStats
	before, after map[string]float64
	// stealPct is the hypervisor's steal time during the timed phase, as
	// a share of all host CPU time.
	stealPct float64
}

// measure runs the plan against servers from launch: fill, timed
// set-up, the timed request lists, then the correctness gate. h observes
// each op (traced replay); it is nil for the end-to-end phase.
func measure(ctx context.Context, cfg runConfig, p *plan, launch launcher, h *hooks) (*phase, error) {
	dir := ""
	if cfg.def.cacheDir {
		var err error
		if dir, err = runDir(cfg.buildDir, cfg.def.name); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	g := newGate(p)
	extra := &loadResult{captures: map[[32]byte]*capture{}}
	fill := func(t *target) {
		if len(p.fill) == 0 {
			return
		}
		res := runLoad(ctx, t.url, [][]op{p.fill}, time.Now().Add(120*time.Second), nil)
		g.checkCaptures(ctx, res, false)
		extra.attempted += res.attempted
		extra.failed += res.failed
		extra.failures = append(extra.failures, res.failures...)
	}
	if cfg.def.restart {
		t, err := launch(dir)
		if err != nil {
			return nil, err
		}
		fill(t)
		if err := t.stop(); err != nil {
			return nil, fmt.Errorf("stopping the fill server: %w", err)
		}
	}
	var setups []float64
	var t *target
	for i := 0; i < cfg.setupReps; i++ {
		start := time.Now()
		var err error
		if t, err = launch(dir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < cfg.setupReps-1 {
			if err := t.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer func() { _ = t.stop() }()
	if err := referenceOp(ctx, t.url, extra); err != nil {
		return nil, err
	}
	if !cfg.def.restart {
		fill(t)
	}
	if err := waitReady(t.debugURL + "/debug/vars"); err != nil {
		return nil, err
	}
	before, err := counters(ctx, t.url)
	if err != nil {
		return nil, err
	}
	ph := &phase{}
	if ph.mem[0], err = readMemStats(ctx, t.debugURL); err != nil {
		return nil, err
	}
	cpu0, err := t.cpu()
	if err != nil {
		return nil, err
	}
	steal0 := hostCPU()
	deadline := time.Now().Add(time.Duration(3*cfg.seconds+20) * time.Second)
	res := runLoad(ctx, t.url, p.loops, deadline, h)
	steal1 := hostCPU()
	cpu1, err := t.cpu()
	if err != nil {
		return nil, err
	}
	if ph.mem[1], err = readMemStats(ctx, t.debugURL); err != nil {
		return nil, err
	}
	after, err := counters(ctx, t.url)
	if err != nil {
		return nil, err
	}
	hwm, err := t.peakRSS()
	if err != nil {
		return nil, err
	}
	if err := t.stop(); err != nil {
		return nil, fmt.Errorf("stopping the server: %w", err)
	}
	t.stop = func() error { return nil }

	checkShape(cfg.def.name, shapeOf(before, after), p, res)
	g.checkCaptures(ctx, res, cfg.def.name != "cold-solve")

	done := float64(len(res.done))
	tput, p50, tail := wholeRun(res, cfg.def.tailPct)
	ph.stealPct = 100 * (steal1.steal - steal0.steal) / max(steal1.total-steal0.total, 1)
	ph.metrics = map[string]metric{
		"setup_s":               {median(setups), "s"},
		"throughput_rps":        {tput, "1/s"},
		"latency_p50_ms":        {p50, "ms"},
		"latency_tail_ms":       {tail, "ms"},
		"server_cpu_ms_per_req": {ms(cpu1-cpu0) / done, "ms"},
		"rss_peak_mb":           {float64(hwm) / (1 << 20), "MiB"},
	}
	res.attempted += extra.attempted
	res.failed += extra.failed
	res.failures = append(extra.failures, res.failures...)
	ph.load = res
	ph.before, ph.after = before, after
	return ph, nil
}

// referenceOp sends the paper's reference problem (untimed) and checks
// the published answer; it counts as one operation.
func referenceOp(ctx context.Context, url string, res *loadResult) error {
	etag, err := kindETag("optimize", referenceSpec)
	if err != nil {
		return err
	}
	o := op{path: "/v1/optimize", body: referenceSpec, etag: etag}
	client := newClient()
	defer client.CloseIdleConnections()
	res.attempted++
	body, _, err := doSync(ctx, client, url, &o, "")
	if err != nil {
		res.fail("reference request: %v", err)
		return nil
	}
	var a struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		res.fail("reference answer: %v", err)
		return nil
	}
	var r struct {
		BW           []float64 `json:"bw"`
		WeightedTime float64   `json:"weighted_time"`
	}
	if err := json.Unmarshal(a.Result, &r); err != nil {
		res.fail("reference answer: %v", err)
		return nil
	}
	if err := checkReferenceValues(r.BW, r.WeightedTime); err != nil {
		res.fail("server: %v", err)
	}
	res.attempted++
	if err := checkLibraryReference(ctx); err != nil {
		res.fail("library: %v", err)
	}
	return nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// stamp records the host and the run's parameters next to every result.
func stamp(cfg runConfig, p *plan, ph *phase) map[string]any {
	cpuModel := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpuModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"host": map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"cpu":        cpuModel,
		},
		"run": map[string]any{
			"workload":     cfg.def.name,
			"seed":         cfg.seed,
			"seconds":      cfg.seconds,
			"trace":        cfg.trace,
			"server_flags": strings.Join(serverFlags(p, dirFlag(cfg.def), "127.0.0.1:<port>"), " "),
			"connections":  cfg.def.loops,
			"requests":     p.requests(),
			"tail":         pctLabel(cfg.def.tailPct),
			"steal_pct":    ph.stealPct,
			"setup_reps":   cfg.setupReps,
		},
	}
}

func dirFlag(def workloadDef) string {
	if def.cacheDir {
		return "<run dir>"
	}
	return ""
}
