package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeReport(t *testing.T, dir, name string, r report) string {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return writeFile(t, dir, name, string(data))
}

func readReport(t *testing.T, path string) report {
	t.Helper()
	r, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParseBenchmem(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "bench.txt", `
goos: linux
BenchmarkSolve-8         	     100	  12345678 ns/op	  4096 B/op	      42 allocs/op
BenchmarkFrontier-8      	      50	  23456789 ns/op
BenchmarkSolve-8         	     120	  11000000 ns/op	  2048 B/op	      21 allocs/op
PASS
`)
	out := filepath.Join(dir, "out.json")
	if err := runParse([]string{"-in", in, "-out", out}); err != nil {
		t.Fatal(err)
	}
	r := readReport(t, out)
	// Suffix stripped, duplicate kept the fastest run with its mem columns.
	if got := r.Benchmarks["BenchmarkSolve"]; got != 11000000 {
		t.Errorf("BenchmarkSolve ns = %v, want 11000000", got)
	}
	if got := r.AllocsPerOp["BenchmarkSolve"]; got != 21 {
		t.Errorf("BenchmarkSolve allocs = %v, want 21", got)
	}
	if got := r.BytesPerOp["BenchmarkSolve"]; got != 2048 {
		t.Errorf("BenchmarkSolve bytes = %v, want 2048", got)
	}
	if got := r.Benchmarks["BenchmarkFrontier"]; got != 23456789 {
		t.Errorf("BenchmarkFrontier ns = %v, want 23456789", got)
	}
	// BenchmarkFrontier had no -benchmem columns: it must not appear in
	// the memory maps.
	if _, ok := r.AllocsPerOp["BenchmarkFrontier"]; ok {
		t.Error("BenchmarkFrontier should have no allocs/op entry")
	}
}

// b.ReportMetric units print between ns/op and the -benchmem pair (real
// `go test -bench -benchmem` output below); B/op and allocs/op must still
// be captured, so the alloc gate keeps covering such benchmarks, and the
// extra units land in the metrics map.
func TestParseReportMetricColumns(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "bench.txt", `
goos: linux
goarch: amd64
pkg: libra
cpu: Intel(R) Xeon(R) Processor
BenchmarkPerfOptSolve-2       	     800	    264060 ns/op	         0 cd-iters/op	       138.0 nm-iters/op	        40.00 pgd-iters/op	         1.000 starts/op	    6585 B/op	      84 allocs/op
BenchmarkColdSolveMix-2       	      82	   3175146 ns/op	      1067 cd-iters/op	      2686 nm-iters/op	         0 pgd-iters/op	        22.00 starts/op	   33373 B/op	     488 allocs/op
BenchmarkTimeFuncEval-2       	 1000000	      1105 ns/op
PASS
`)
	out := filepath.Join(dir, "out.json")
	if err := runParse([]string{"-in", in, "-out", out}); err != nil {
		t.Fatal(err)
	}
	r := readReport(t, out)
	if got := r.Benchmarks["BenchmarkPerfOptSolve"]; got != 264060 {
		t.Errorf("BenchmarkPerfOptSolve ns = %v, want 264060", got)
	}
	if got := r.BytesPerOp["BenchmarkPerfOptSolve"]; got != 6585 {
		t.Errorf("BenchmarkPerfOptSolve bytes = %v, want 6585", got)
	}
	if got := r.AllocsPerOp["BenchmarkColdSolveMix"]; got != 488 {
		t.Errorf("BenchmarkColdSolveMix allocs = %v, want 488", got)
	}
	if got := r.Metrics["nm-iters/op"]["BenchmarkColdSolveMix"]; got != 2686 {
		t.Errorf("BenchmarkColdSolveMix nm-iters/op = %v, want 2686", got)
	}
	if got, ok := r.Metrics["cd-iters/op"]["BenchmarkPerfOptSolve"]; !ok || got != 0 {
		t.Errorf("BenchmarkPerfOptSolve cd-iters/op = %v (present %v), want a recorded 0", got, ok)
	}
	if got := r.Benchmarks["BenchmarkTimeFuncEval"]; got != 1105 {
		t.Errorf("BenchmarkTimeFuncEval ns = %v, want 1105", got)
	}
	if _, ok := r.AllocsPerOp["BenchmarkTimeFuncEval"]; ok {
		t.Error("BenchmarkTimeFuncEval should have no allocs/op entry")
	}
}

func TestCompareTimeGateTrips(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", report{
		Unit:       "ns/op",
		Benchmarks: map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100},
	})
	cur := writeReport(t, dir, "cur.json", report{
		Unit:       "ns/op",
		Benchmarks: map[string]float64{"BenchmarkA": 200, "BenchmarkB": 100},
	})
	err := runCompare([]string{"-baseline", base, "-current", cur, "-threshold", "0.25"})
	if err == nil || !strings.Contains(err.Error(), "BenchmarkA") {
		t.Fatalf("want BenchmarkA time regression, got %v", err)
	}
	// Within threshold: passes.
	ok := writeReport(t, dir, "ok.json", report{
		Unit:       "ns/op",
		Benchmarks: map[string]float64{"BenchmarkA": 110, "BenchmarkB": 100},
	})
	if err := runCompare([]string{"-baseline", base, "-current", ok, "-threshold", "0.25"}); err != nil {
		t.Fatalf("within-threshold run failed: %v", err)
	}
}

func TestCompareAllocGateTrips(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", report{
		Unit:        "ns/op",
		Benchmarks:  map[string]float64{"BenchmarkA": 100},
		AllocsPerOp: map[string]float64{"BenchmarkA": 100},
	})
	// Time is fine; allocs doubled.
	cur := writeReport(t, dir, "cur.json", report{
		Unit:        "ns/op",
		Benchmarks:  map[string]float64{"BenchmarkA": 100},
		AllocsPerOp: map[string]float64{"BenchmarkA": 200},
	})
	err := runCompare([]string{"-baseline", base, "-current", cur})
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("want allocs/op regression, got %v", err)
	}
}

func TestCompareAllocGateSlackAndSkip(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", report{
		Unit:        "ns/op",
		Benchmarks:  map[string]float64{"BenchmarkTiny": 100, "BenchmarkSkipped": 100},
		AllocsPerOp: map[string]float64{"BenchmarkTiny": 2, "BenchmarkSkipped": 10},
	})
	// Tiny baseline grows 2 -> 4 (100% relative, but within the +2
	// absolute slack); the skipped benchmark regresses hard but is
	// excluded from the gate.
	cur := writeReport(t, dir, "cur.json", report{
		Unit:        "ns/op",
		Benchmarks:  map[string]float64{"BenchmarkTiny": 100, "BenchmarkSkipped": 100},
		AllocsPerOp: map[string]float64{"BenchmarkTiny": 4, "BenchmarkSkipped": 1000},
	})
	if err := runCompare([]string{"-baseline", base, "-current", cur, "-skip", "BenchmarkSkipped"}); err != nil {
		t.Fatalf("slack/skip run failed: %v", err)
	}
	// Past the slack it trips.
	bad := writeReport(t, dir, "bad.json", report{
		Unit:        "ns/op",
		Benchmarks:  map[string]float64{"BenchmarkTiny": 100, "BenchmarkSkipped": 100},
		AllocsPerOp: map[string]float64{"BenchmarkTiny": 5, "BenchmarkSkipped": 10},
	})
	err := runCompare([]string{"-baseline", base, "-current", bad, "-skip", "BenchmarkSkipped"})
	if err == nil || !strings.Contains(err.Error(), "BenchmarkTiny") {
		t.Fatalf("want BenchmarkTiny alloc regression, got %v", err)
	}
}

// The solver work counts are deterministic, so compare gates them
// exactly: any increase fails and names the benchmark and unit; a tie or a
// decrease passes; a count on only one side, or a metric outside the
// gated units, is not gated.
func TestCompareCountGate(t *testing.T) {
	base := report{
		Unit:       "ns/op",
		Benchmarks: map[string]float64{"BenchmarkSolve": 100, "BenchmarkMix": 100},
		Metrics: map[string]map[string]float64{
			"starts/op":    {"BenchmarkSolve": 1, "BenchmarkMix": 22},
			"nm-iters/op":  {"BenchmarkSolve": 138, "BenchmarkMix": 2686},
			"cd-iters/op":  {"BenchmarkMix": 1067},
			"speedup-x":    {"BenchmarkSolve": 1.2},
			"pgd-iters/op": {"BenchmarkSolve": 40},
		},
	}
	for _, tc := range []struct {
		name    string
		metrics map[string]map[string]float64
		wantErr string // "" = passes
	}{
		{"equal counts", base.Metrics, ""},
		{"an increase", map[string]map[string]float64{
			"starts/op":    {"BenchmarkSolve": 1, "BenchmarkMix": 22},
			"nm-iters/op":  {"BenchmarkSolve": 138, "BenchmarkMix": 2686},
			"cd-iters/op":  {"BenchmarkMix": 1068},
			"pgd-iters/op": {"BenchmarkSolve": 40},
		}, "BenchmarkMix: cd-iters/op 1067 -> 1068"},
		{"a decrease", map[string]map[string]float64{
			"starts/op":    {"BenchmarkSolve": 1, "BenchmarkMix": 11},
			"nm-iters/op":  {"BenchmarkSolve": 100, "BenchmarkMix": 2686},
			"cd-iters/op":  {"BenchmarkMix": 0},
			"pgd-iters/op": {"BenchmarkSolve": 4},
		}, ""},
		{"a count on one side only", map[string]map[string]float64{
			"starts/op":    {"BenchmarkSolve": 1, "BenchmarkNew": 99},
			"nm-iters/op":  {"BenchmarkSolve": 138, "BenchmarkMix": 2686},
			"cd-iters/op":  {"BenchmarkMix": 1067},
			"pgd-iters/op": {"BenchmarkSolve": 40},
		}, ""},
		{"an ungated metric grows", map[string]map[string]float64{
			"starts/op":    {"BenchmarkSolve": 1, "BenchmarkMix": 22},
			"nm-iters/op":  {"BenchmarkSolve": 138, "BenchmarkMix": 2686},
			"cd-iters/op":  {"BenchmarkMix": 1067},
			"speedup-x":    {"BenchmarkSolve": 9},
			"pgd-iters/op": {"BenchmarkSolve": 40},
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			b := writeReport(t, dir, "base.json", base)
			c := writeReport(t, dir, "cur.json", report{Unit: "ns/op", Benchmarks: base.Benchmarks, Metrics: tc.metrics})
			err := runCompare([]string{"-baseline", b, "-current", c})
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("want pass, got %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("want error naming %q, got %v", tc.wantErr, err)
			}
		})
	}
}

func TestCompareMissingBaselineEntry(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", report{
		Unit:       "ns/op",
		Benchmarks: map[string]float64{"BenchmarkA": 100, "BenchmarkGone": 100},
	})
	cur := writeReport(t, dir, "cur.json", report{
		Unit:       "ns/op",
		Benchmarks: map[string]float64{"BenchmarkA": 100},
	})
	err := runCompare([]string{"-baseline", base, "-current", cur})
	if err == nil || !strings.Contains(err.Error(), "BenchmarkGone") {
		t.Fatalf("want missing-benchmark error naming BenchmarkGone, got %v", err)
	}
}

func TestRecordAppendsHistory(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", report{
		Unit:       "ns/op",
		Benchmarks: map[string]float64{"BenchmarkA": 100, "BenchmarkB": 200},
	})
	cur := writeReport(t, dir, "cur.json", report{
		Unit:        "ns/op",
		Benchmarks:  map[string]float64{"BenchmarkA": 50, "BenchmarkB": 200},
		AllocsPerOp: map[string]float64{"BenchmarkA": 42, "BenchmarkB": 7},
	})
	hist := filepath.Join(dir, "hist.jsonl")
	for i := 0; i < 2; i++ {
		if err := runRecord([]string{"-current", cur, "-baseline", base, "-history", hist, "-label", "t"}); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(hist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []historyEntry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e historyEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad history line %q: %v", sc.Text(), err)
		}
		lines = append(lines, e)
	}
	if len(lines) != 2 {
		t.Fatalf("history lines = %d, want 2 (append-only)", len(lines))
	}
	e := lines[1]
	if e.Label != "t" || e.Time == "" {
		t.Errorf("label/time = %q/%q", e.Label, e.Time)
	}
	if got := e.VsBaseline["BenchmarkA"]; got != 0.5 {
		t.Errorf("vs_baseline[BenchmarkA] = %v, want 0.5", got)
	}
	if got := e.AllocsPerOp["BenchmarkB"]; got != 7 {
		t.Errorf("allocs[BenchmarkB] = %v, want 7", got)
	}
}
