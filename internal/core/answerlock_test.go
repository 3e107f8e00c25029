package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

var updateAnswerLock = flag.Bool("update-answer-lock", false, "rewrite testdata/answerlock.golden")

// answerLockSpecs are the problems whose full-precision Optimize answers
// are locked: cold-solve-shaped transformer mixes on 3D-4K, 3D-1K and
// 4D-4K under both objectives, with dimension caps, floors, ordering, a
// pair sum, in-network offload, the overlap loop and the ideal mapping.
// Solver budgets are trimmed where the default would make the test slow
// under -race; the code paths are the same.
func answerLockSpecs() []ProblemSpec {
	mix := func(w1, w2, w3 float64) []WorkloadSpec {
		return []WorkloadSpec{
			{Preset: "GPT-3", Weight: w1},
			{Preset: "Turing-NLG", Weight: w2},
			{Preset: "MSFT-1T", Weight: w3},
		}
	}
	small := &SolverSpec{Starts: 3, MaxIters: 200}
	return []ProblemSpec{
		{Topology: "3D-4K", Workloads: mix(1.2, 0.7, 0.9), BudgetGBps: 612.5, Objective: "perf-per-cost", Solver: small},
		{Topology: "3D-1K", Workloads: mix(0.6, 1.4, 1.1), BudgetGBps: 431.25, Objective: "perf-per-cost", Solver: small},
		{Topology: "4D-4K", Workloads: mix(1, 1, 1), BudgetGBps: 500, Objective: "perf-per-cost", Solver: small},
		{Topology: "3D-4K", Workloads: mix(0.8, 1.3, 0.5), BudgetGBps: 875, Objective: "perf"},
		{Topology: "4D-4K", Workloads: []WorkloadSpec{{Preset: "GPT-3"}}, BudgetGBps: 500, Objective: "perf"},
		{Topology: "3D-1K", Workloads: mix(1, 0.5, 1.5), BudgetGBps: 300, Objective: "perf",
			Constraints: []ConstraintSpec{DimCap(1, 120)}},
		{Topology: "4D-4K", Workloads: mix(0.9, 0.9, 1.2), BudgetGBps: 700, Objective: "perf-per-cost", Solver: small,
			Constraints: []ConstraintSpec{OrderedDims(2, 3), OrderedDims(3, 4)}},
		{Topology: "3D-4K", Workloads: mix(1.5, 0.6, 0.8), BudgetGBps: 520, Objective: "perf-per-cost", Solver: small,
			Constraints: []ConstraintSpec{DimFloor(3, 90)}},
		{Topology: "4D-4K", Workloads: mix(0.7, 1.1, 1), BudgetGBps: 640, Objective: "perf",
			Constraints: []ConstraintSpec{DimCap(4, 40), OrderedDims(1, 2)}},
		{Topology: "3D-1K", Workloads: mix(1.3, 0.8, 0.6), BudgetGBps: 380, Objective: "perf-per-cost", Solver: small,
			Loop: "tp-dp-overlap", Constraints: []ConstraintSpec{DimFloor(2, 60)}},
		{Topology: "4D-4K", Workloads: mix(1, 0.75, 1.25), BudgetGBps: 560, Objective: "perf",
			OptPolicy: "ideal-full-dims", InNetwork: []bool{false, false, false, true}},
		{Topology: "3D-4K", Workloads: mix(0.9, 1, 1.4), BudgetGBps: 720, Objective: "perf-per-cost", Solver: small,
			Constraints: []ConstraintSpec{PairSum(1, 2, 500), DimCap(3, 260)}},
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// TestAnswerLock pins the solver's answers bit for bit: every float in
// the golden file is printed at full (round-trip) precision, so any change
// to the solver or the time model that moves a single bit fails here.
// Regenerate only for an intentional answer change:
//
//	go test ./internal/core -run TestAnswerLock -update-answer-lock
func TestAnswerLock(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("answer lock recorded on amd64; %s may fuse multiply-adds and move low bits", runtime.GOARCH)
	}
	var buf bytes.Buffer
	for i, s := range answerLockSpecs() {
		p, err := s.Build()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		res, err := p.Optimize()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		fmt.Fprintf(&buf, "%d %s %s budget=%g\n", i, s.Topology, s.Objective, s.BudgetGBps)
		fmt.Fprintf(&buf, "  bw=%s\n", fmtFloats(res.BW))
		fmt.Fprintf(&buf, "  times=%s\n", fmtFloats(res.Times))
		fmt.Fprintf(&buf, "  weighted=%s cost=%s util=%s\n",
			strconv.FormatFloat(res.WeightedTime, 'g', -1, 64),
			strconv.FormatFloat(res.Cost, 'g', -1, 64),
			strconv.FormatFloat(res.Utilization, 'g', -1, 64))
	}
	golden := filepath.Join("testdata", "answerlock.golden")
	if *updateAnswerLock {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-answer-lock)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("solver answers moved:\n--- got\n%s--- want\n%s", buf.Bytes(), want)
	}
}

// TestAnswerEpochPinsAnswerLock: regenerating the answer lock means
// answers moved under unchanged fingerprints, and a disk store written
// before the move would keep serving the old ones, so the lock's hash is
// pinned next to AnswerEpoch and both move together.
func TestAnswerEpochPinsAnswerLock(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "answerlock.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(data)); sum != answerLockSHA256 {
		t.Errorf("answerlock.golden changed (sha256 %s, pinned %s): bump AnswerEpoch past %q and re-pin answerLockSHA256 next to it",
			sum, answerLockSHA256, AnswerEpoch)
	}
}
