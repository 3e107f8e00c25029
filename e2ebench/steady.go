package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which the acceptance check uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// steadyReport runs a workload n times back to back (seeds seed …
// seed+n-1) and prints, per metric, the median, the quartiles and the
// quartile spread as a share of the median next to the metric's bound.
// It is the evidence behind the bounds in BENCHMARK.json and the tool
// for re-measuring a baseline.
func steadyReport(cfg runConfig, n int, benchJSON string) error {
	bounds := map[string]float64{}
	if data, err := os.ReadFile(benchJSON); err == nil {
		var spec struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			return err
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	values := map[string][]float64{}
	units := map[string]string{}
	failed := 0
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		out, err := run(context.Background(), c)
		if err != nil {
			return err
		}
		failed += out.Failed
		for name, m := range out.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		var vals []string
		for _, name := range sortedKeys(out.Metrics) {
			vals = append(vals, fmt.Sprintf("%s=%.4g", name, out.Metrics[name].Value))
		}
		fmt.Fprintf(os.Stderr, "run %d/%d seed %d: failed %d steal %.1f%% %s\n",
			i+1, n, c.seed, out.Failed, out.stamp["run"].(map[string]any)["steal_pct"], strings.Join(vals, " "))
	}
	var names []string
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d runs, seeds %d..%d, %d failed ops\n", cfg.def.name, n, cfg.seed, cfg.seed+int64(n)-1, failed)
	fmt.Printf("%-26s %-6s %12s %12s %12s %8s %7s  %s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		spread := (q3 - q1) / q2
		bound, verdict := "-", ""
		if b, ok := bounds[name]; ok {
			bound = fmt.Sprintf("%.3f", b)
			switch {
			case spread <= b/3:
				verdict = "steady (< bound/3)"
			case spread <= b:
				verdict = "within bound"
			default:
				verdict = "TOO NOISY"
			}
		}
		fmt.Printf("%-26s %-6s %12.4f %12.4f %12.4f %8.4f %7s  %s\n", name, units[name], q1, q2, q3, spread, bound, verdict)
	}
	return nil
}

func sortedKeys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
