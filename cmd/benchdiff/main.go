// Command benchdiff turns `go test -bench` output into a JSON baseline
// and gates benchmark regressions against it — the comparison step of the
// CI bench job.
//
//	go test -bench=. -benchmem -benchtime=500ms -run='^$' | benchdiff parse -out BENCH_ci.json
//	benchdiff compare -baseline BENCH_baseline.json -current BENCH_ci.json \
//	    -threshold 0.25 -anchors BenchmarkA,BenchmarkB
//	benchdiff record -current BENCH_ci.json -baseline BENCH_baseline.json \
//	    -history BENCH_history.jsonl -label "PR 7"
//
// parse reads benchmark text (stdin or -in), strips the GOMAXPROCS name
// suffix so runs from machines with different core counts share names,
// and writes {"unit": "ns/op", "benchmarks": {name: ns}}. When the run
// used -benchmem, per-benchmark "bytes_per_op" and "allocs_per_op" maps
// are captured alongside. Units a benchmark reports with b.ReportMetric
// (printed between ns/op and B/op) land in a "metrics" map, unit →
// benchmark → value.
//
// compare loads two parse outputs and fails (exit 1) when any benchmark
// regresses by more than -threshold (fractional; 0.25 = 25%), or when a
// baseline benchmark is missing from the current run (a rename or a
// crashed-out run must not silently shrink the gate — regenerate the
// baseline instead). Pass -anchors with a comma-separated list of
// benchmark names to divide every per-benchmark ratio by the median ratio
// of those benchmarks first, canceling uniform machine-speed differences
// between the baseline host and the CI runner so only relative
// regressions trip the gate: anchors should avoid the hot paths under
// test, so a genuine regression uniform across the rest of the suite
// cannot normalize itself away. Pass -skip
// with benchmarks to exclude from gating entirely — core-count-sensitive
// benchmarks (parallel solver/engine paths) scale with the host's cores,
// which single-threaded anchors cannot cancel, so gating them across
// hosts with different core counts would only measure the hardware.
// allocs/op is machine-independent, so when both reports carry alloc
// data, compare additionally gates raw allocs/op growth beyond
// -allocthreshold (default 0.25) with no normalization; benchmarks
// missing alloc data on either side are not alloc-gated. The solver work
// counts (the countUnits metrics: starts and per-search iterations per
// op) are exactly reproducible on any host, so compare fails on any
// increase in them; a count present on only one side is printed, not
// gated.
//
// record appends the current report to a JSONL history file — one line
// per run with a timestamp, an optional -label, the full per-benchmark
// numbers, and (when -baseline resolves) the per-benchmark vs-baseline
// ratios — and prints a summary table. The history file is an append-only
// perf log: plot it, bisect it, or diff labels across PRs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// report is the JSON schema shared by parse, compare, and record. The
// memory maps are present only for -benchmem runs; older baselines
// without them load fine and simply skip the alloc gate.
type report struct {
	Unit        string             `json:"unit"`
	Benchmarks  map[string]float64 `json:"benchmarks"`
	BytesPerOp  map[string]float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds b.ReportMetric values: unit → benchmark → value.
	// Only the countUnits are gated.
	Metrics map[string]map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	if len(os.Args) < 2 {
		fatal(fmt.Errorf("usage: benchdiff parse|compare|record [flags]"))
	}
	switch os.Args[1] {
	case "parse":
		fatal(runParse(os.Args[2:]))
	case "compare":
		fatal(runCompare(os.Args[2:]))
	case "record":
		fatal(runRecord(os.Args[2:]))
	default:
		fatal(fmt.Errorf("unknown subcommand %q (want parse, compare, or record)", os.Args[1]))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// benchLine matches one result line: name, iteration count, then the
// "<value> <unit>" pairs — ns/op first, any b.ReportMetric units next,
// and the -benchmem B/op + allocs/op pair last.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.+)$`)

// benchEntry is one parsed benchmark result line.
type benchEntry struct {
	name          string
	ns            float64
	bytes, allocs float64
	hasMem        bool
	// metrics holds the b.ReportMetric units (e.g. "starts/op").
	metrics map[string]float64
}

// parseBenchLine reads one result line; ok is false for any other line.
func parseBenchLine(line string) (e benchEntry, ok bool, err error) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return e, false, nil
	}
	fields := strings.Fields(m[2])
	if len(fields)%2 != 0 {
		return e, false, nil
	}
	e.name = m[1]
	var hasNs, hasBytes, hasAllocs bool
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return e, false, fmt.Errorf("line %q: %w", line, err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			e.ns, hasNs = v, true
		case "B/op":
			e.bytes, hasBytes = v, true
		case "allocs/op":
			e.allocs, hasAllocs = v, true
		default:
			if e.metrics == nil {
				e.metrics = map[string]float64{}
			}
			e.metrics[unit] = v
		}
	}
	e.hasMem = hasBytes && hasAllocs
	return e, hasNs, nil
}

func runParse(args []string) error {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	in := fs.String("in", "", "benchmark text file (default stdin)")
	out := fs.String("out", "", "output JSON file (default stdout)")
	fs.Parse(args)

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	var entries []benchEntry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		e, ok, err := parseBenchLine(sc.Text())
		if err != nil {
			return err
		}
		if ok {
			entries = append(entries, e)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("no benchmark lines found")
	}

	// Go appends "-GOMAXPROCS" to every name when GOMAXPROCS > 1. Detect
	// the run-wide suffix (every name carries the same one) and strip it,
	// so baselines and CI runs from machines with different core counts
	// compare by bare name. Names like ".../chunks-64" are safe: they only
	// lose their true "-N" when every other name coincidentally ends in
	// the same "-N", which the unanimity check prevents.
	suffix := commonSuffix(entries[0].name)
	for _, e := range entries {
		if commonSuffix(e.name) != suffix {
			suffix = ""
			break
		}
	}
	res := report{Unit: "ns/op", Benchmarks: map[string]float64{}}
	keep := func(name string, e benchEntry) {
		res.Benchmarks[name] = e.ns
		if e.hasMem {
			if res.BytesPerOp == nil {
				res.BytesPerOp = map[string]float64{}
				res.AllocsPerOp = map[string]float64{}
			}
			res.BytesPerOp[name] = e.bytes
			res.AllocsPerOp[name] = e.allocs
		}
		for unit, v := range e.metrics {
			if res.Metrics == nil {
				res.Metrics = map[string]map[string]float64{}
			}
			if res.Metrics[unit] == nil {
				res.Metrics[unit] = map[string]float64{}
			}
			res.Metrics[unit][name] = v
		}
	}
	for _, e := range entries {
		name := strings.TrimSuffix(e.name, suffix)
		if prev, dup := res.Benchmarks[name]; dup {
			// Repeated benchmarks (e.g. -count > 1): keep the fastest run
			// — its memory columns travel with it.
			if e.ns < prev {
				keep(name, e)
			}
			continue
		}
		keep(name, e)
	}

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// commonSuffix returns the "-N" tail of a benchmark name, or "".
var suffixRE = regexp.MustCompile(`-\d+$`)

func commonSuffix(name string) string {
	return suffixRE.FindString(name)
}

func loadReport(path string) (report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return report{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Benchmarks) == 0 {
		return report{}, fmt.Errorf("%s: no benchmarks", path)
	}
	return r, nil
}

// countUnits are the deterministic solver work counts the benchmarks
// report; compare gates them exactly.
var countUnits = []string{"starts/op", "pgd-iters/op", "nm-iters/op", "cd-iters/op"}

func runCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	basePath := fs.String("baseline", "BENCH_baseline.json", "baseline JSON (benchdiff parse output)")
	curPath := fs.String("current", "BENCH_ci.json", "current JSON (benchdiff parse output)")
	threshold := fs.Float64("threshold", 0.25, "fail when a benchmark slows down by more than this fraction")
	allocThreshold := fs.Float64("allocthreshold", 0.25, "fail when a benchmark's allocs/op grows by more than this fraction (raw, no normalization)")
	anchors := fs.String("anchors", "", "comma-separated benchmark names whose median ratio normalizes the rest (cancels uniform machine-speed differences)")
	skip := fs.String("skip", "", "comma-separated benchmark names excluded from the regression and missing-benchmark gates (reported informationally)")
	fs.Parse(args)

	skipped := map[string]bool{}
	for _, name := range strings.Split(*skip, ",") {
		if name = strings.TrimSpace(name); name != "" {
			skipped[name] = true
		}
	}

	base, err := loadReport(*basePath)
	if err != nil {
		return err
	}
	cur, err := loadReport(*curPath)
	if err != nil {
		return err
	}

	var names, missing []string
	for name := range base.Benchmarks {
		if _, ok := cur.Benchmarks[name]; ok {
			names = append(names, name)
		} else if !skipped[name] {
			missing = append(missing, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no common benchmarks between %s and %s", *basePath, *curPath)
	}
	sort.Strings(names)

	ratios := make(map[string]float64, len(names))
	for _, name := range names {
		b := base.Benchmarks[name]
		if b <= 0 {
			// A degenerate baseline entry cannot form a ratio; surfacing
			// it as missing (unless explicitly -skip'd) keeps the gate
			// from silently shrinking.
			if !skipped[name] {
				missing = append(missing, name+" (non-positive baseline)")
			}
			continue
		}
		ratios[name] = cur.Benchmarks[name] / b
	}
	scale := 1.0
	if *anchors != "" {
		var anchored []float64
		for _, name := range strings.Split(*anchors, ",") {
			name = strings.TrimSpace(name)
			if r, ok := ratios[name]; ok {
				anchored = append(anchored, r)
			} else {
				fmt.Printf("warning: anchor %q not present in both runs; ignoring\n", name)
			}
		}
		if len(anchored) == 0 {
			return fmt.Errorf("none of the -anchors benchmarks are present in both runs")
		}
		scale = median(anchored)
		fmt.Printf("normalizing by median anchor ratio %.3f (%d anchors)\n", scale, len(anchored))
	}

	var regressions []string
	fmt.Printf("%-44s %14s %14s %8s\n", "benchmark", "baseline ns", "current ns", "ratio")
	for _, name := range names {
		r, ok := ratios[name]
		if !ok {
			continue
		}
		adj := r / scale
		mark := ""
		switch {
		case skipped[name]:
			mark = "  (skipped)"
		case adj > 1+*threshold:
			mark = "  << REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s: %.2fx (threshold %.2fx)", name, adj, 1+*threshold))
		}
		fmt.Printf("%-44s %14.0f %14.0f %7.2fx%s\n", name, base.Benchmarks[name], cur.Benchmarks[name], adj, mark)
	}
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Printf("%-44s %14s %14.0f    (new)\n", name, "-", cur.Benchmarks[name])
		}
	}

	// Alloc gate: allocs/op is deterministic and machine-independent, so
	// it compares raw. Only benchmarks with alloc data on both sides are
	// gated; tiny baselines get a +2 absolute slack so a 1-alloc wobble
	// on a near-zero-alloc path cannot trip a 25% relative gate.
	var allocRegressions []string
	if len(base.AllocsPerOp) > 0 && len(cur.AllocsPerOp) > 0 {
		fmt.Printf("\n%-44s %14s %14s %8s\n", "benchmark", "base allocs", "cur allocs", "ratio")
		for _, name := range names {
			b, okB := base.AllocsPerOp[name]
			c, okC := cur.AllocsPerOp[name]
			if !okB || !okC {
				continue
			}
			limit := b * (1 + *allocThreshold)
			if limit < b+2 {
				limit = b + 2
			}
			ratio := 1.0
			if b > 0 {
				ratio = c / b
			} else if c > 0 {
				ratio = math.Inf(1)
			}
			mark := ""
			switch {
			case skipped[name]:
				mark = "  (skipped)"
			case c > limit:
				mark = "  << ALLOC REGRESSION"
				allocRegressions = append(allocRegressions,
					fmt.Sprintf("%s: %.0f -> %.0f allocs/op (limit %.0f)", name, b, c, limit))
			}
			fmt.Printf("%-44s %14.0f %14.0f %7.2fx%s\n", name, b, c, ratio, mark)
		}
	}

	countRegressions := compareCounts(base, cur, skipped)

	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("%d baseline benchmark(s) missing from the current run (renamed, deleted, or the run crashed; regenerate the baseline with `make bench-baseline` if intentional):\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark regression(s):\n  %s",
			len(regressions), strings.Join(regressions, "\n  "))
	}
	if len(allocRegressions) > 0 {
		return fmt.Errorf("%d allocs/op regression(s):\n  %s",
			len(allocRegressions), strings.Join(allocRegressions, "\n  "))
	}
	if len(countRegressions) > 0 {
		return fmt.Errorf("%d solver work count regression(s):\n  %s",
			len(countRegressions), strings.Join(countRegressions, "\n  "))
	}
	fmt.Println("no regressions")
	return nil
}

// compareCounts prints every countUnits metric of either report and
// returns one line per benchmark and unit whose count grew. The counts are
// deterministic, so the gate is exact: any increase fails, any decrease or
// tie passes. A count missing on one side is printed but not gated.
func compareCounts(base, cur report, skipped map[string]bool) []string {
	var regressions []string
	header := false
	for _, unit := range countUnits {
		bm, cm := base.Metrics[unit], cur.Metrics[unit]
		var names []string
		for name := range bm {
			names = append(names, name)
		}
		for name := range cm {
			if _, ok := bm[name]; !ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			if !header {
				fmt.Printf("\n%-44s %14s %14s %14s\n", "benchmark", "unit", "base", "cur")
				header = true
			}
			b, okB := bm[name]
			c, okC := cm[name]
			switch {
			case !okB:
				fmt.Printf("%-44s %14s %14s %14g  (new, not gated)\n", name, unit, "-", c)
			case !okC:
				fmt.Printf("%-44s %14s %14g %14s  (missing, not gated)\n", name, unit, b, "-")
			default:
				mark := ""
				switch {
				case skipped[name]:
					mark = "  (skipped)"
				case c > b:
					mark = "  << COUNT REGRESSION"
					regressions = append(regressions, fmt.Sprintf("%s: %s %g -> %g", name, unit, b, c))
				}
				fmt.Printf("%-44s %14s %14g %14g%s\n", name, unit, b, c, mark)
			}
		}
	}
	return regressions
}

// historyEntry is one line of the JSONL perf log written by record.
type historyEntry struct {
	Time        string                        `json:"time"`
	Label       string                        `json:"label,omitempty"`
	Unit        string                        `json:"unit"`
	Benchmarks  map[string]float64            `json:"benchmarks"`
	BytesPerOp  map[string]float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp map[string]float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]map[string]float64 `json:"metrics,omitempty"`
	VsBaseline  map[string]float64            `json:"vs_baseline,omitempty"`
}

func runRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	curPath := fs.String("current", "BENCH_ci.json", "current JSON (benchdiff parse output)")
	basePath := fs.String("baseline", "", "optional baseline JSON for vs_baseline ratios")
	histPath := fs.String("history", "BENCH_history.jsonl", "append-only JSONL history file")
	label := fs.String("label", "", "free-form tag for this run (branch, PR, commit)")
	fs.Parse(args)

	cur, err := loadReport(*curPath)
	if err != nil {
		return err
	}
	entry := historyEntry{
		Time:        time.Now().UTC().Format(time.RFC3339),
		Label:       *label,
		Unit:        cur.Unit,
		Benchmarks:  cur.Benchmarks,
		BytesPerOp:  cur.BytesPerOp,
		AllocsPerOp: cur.AllocsPerOp,
		Metrics:     cur.Metrics,
	}
	if *basePath != "" {
		base, baseErr := loadReport(*basePath)
		if baseErr != nil {
			return baseErr
		}
		entry.VsBaseline = map[string]float64{}
		for name, c := range cur.Benchmarks {
			if b := base.Benchmarks[name]; b > 0 {
				entry.VsBaseline[name] = c / b
			}
		}
	}

	line, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(*histPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-44s %14s %12s %12s %10s\n", "benchmark", "ns/op", "B/op", "allocs/op", "vs base")
	for _, name := range names {
		bop, aop, vs := "-", "-", "-"
		if v, ok := cur.BytesPerOp[name]; ok {
			bop = fmt.Sprintf("%.0f", v)
		}
		if v, ok := cur.AllocsPerOp[name]; ok {
			aop = fmt.Sprintf("%.0f", v)
		}
		if v, ok := entry.VsBaseline[name]; ok {
			vs = fmt.Sprintf("%.2fx", v)
		}
		fmt.Printf("%-44s %14.0f %12s %12s %10s\n", name, cur.Benchmarks[name], bop, aop, vs)
	}
	fmt.Printf("recorded %d benchmarks to %s\n", len(names), *histPath)
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
