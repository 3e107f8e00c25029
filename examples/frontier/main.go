// Cost–performance Pareto frontiers for three workload scenarios — the
// paper's §VI tradeoff studies as one subsystem call. Each scenario sweeps
// the per-NPU bandwidth budget over a grid, solves every point through a
// shared Engine (fingerprint-cached, worker-bounded), and prints the
// Pareto-optimal designs next to the workload-agnostic EqualBW baseline.
//
//	go run ./examples/frontier                 # all three scenarios
//	go run ./examples/frontier -scenario dlrm  # one scenario
//	go run ./examples/frontier -steps 8        # denser budget grid
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"libra"
)

// scenario is one frontier study: a workload mix on a Table III topology.
type scenario struct {
	key  string
	desc string
	spec *libra.ProblemSpec
}

// scenarios returns the three preset studies. "gpt1t" is the trillion-
// parameter GPT-style model (Table II's MSFT-1T); "mixed" optimizes one
// fabric for an LLM + recommendation + vision mixture, weighted by their
// share of the fleet.
func scenarios() []scenario {
	return []scenario{
		{
			key:  "gpt1t",
			desc: "GPT-1T (MSFT-1T) on 4D-4K, PerfOpt",
			spec: &libra.ProblemSpec{
				Topology:  "4D-4K",
				Workloads: []libra.WorkloadSpec{{Preset: "MSFT-1T"}},
			},
		},
		{
			key:  "dlrm",
			desc: "DLRM on 3D-1K, PerfPerCostOpt",
			spec: &libra.ProblemSpec{
				Topology:  "3D-1K",
				Workloads: []libra.WorkloadSpec{{Preset: "DLRM"}},
				Objective: "perf-per-cost",
			},
		},
		{
			key:  "mixed",
			desc: "mixed fleet (GPT-3 ×3, DLRM ×2, ResNet-50 ×1) on 3D-4K",
			spec: &libra.ProblemSpec{
				Topology: "3D-4K",
				Workloads: []libra.WorkloadSpec{
					{Preset: "GPT-3", Weight: 3},
					{Preset: "DLRM", Weight: 2},
					{Preset: "ResNet-50", Weight: 1},
				},
			},
		},
	}
}

func main() {
	var (
		which = flag.String("scenario", "all", "gpt1t, dlrm, mixed, or all")
		lo    = flag.Float64("min", 200, "smallest per-NPU budget (GB/s)")
		hi    = flag.Float64("max", 1000, "largest per-NPU budget (GB/s)")
		steps = flag.Int("steps", 5, "budget grid points")
	)
	flag.Parse()

	engine := libra.NewEngine(libra.EngineConfig{})
	defer engine.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	req := libra.FrontierRequest{BudgetMin: *lo, BudgetMax: *hi, BudgetSteps: *steps}
	ran := 0
	for _, sc := range scenarios() {
		if *which != "all" && *which != sc.key {
			continue
		}
		ran++
		fmt.Printf("== %s ==\n", sc.desc)
		res, err := libra.Frontier(ctx, engine, sc.spec, req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %10s %14s %14s %9s %7s\n",
			"budget (GB/s)", "cost ($M)", "iter time (s)", "EqualBW (s)", "speedup", "pareto")
		for i, p := range res.Points {
			if p.Error != "" {
				fmt.Printf("%-14.0f error: %v\n", p.BudgetGBps, p.Error)
				continue
			}
			mark := ""
			if p.Pareto {
				mark = "*"
			}
			eqTime, speedup := "-", "-"
			if eq := res.EqualBW[i]; eq.Error == "" {
				eqTime = fmt.Sprintf("%14.6f", eq.Result.WeightedTime)
				speedup = fmt.Sprintf("%8.2fx", eq.Result.WeightedTime/p.Result.WeightedTime)
			}
			fmt.Printf("%-14.0f %10.2f %14.6f %14s %9s %7s\n",
				p.BudgetGBps, p.Result.Cost/1e6, p.Result.WeightedTime, eqTime, speedup, mark)
		}
		fmt.Printf("frontier: %d of %d points pareto-optimal (%d solves, %d cache hits, %.0f ms)\n\n",
			len(res.Frontier), len(res.Points), res.Solves, res.CacheHits, res.ElapsedMS)
	}
	if ran == 0 {
		log.Fatalf("unknown scenario %q (want gpt1t, dlrm, mixed, or all)", *which)
	}
}
