// Quickstart: optimize the paper's representative 4D-4K fabric for GPT-3
// training at 500 GB/s per NPU and compare LIBRA's two objectives against
// the EqualBW baseline.
package main

import (
	"fmt"
	"log"

	"libra"
)

func main() {
	net := libra.MustParseTopology("RI(4)_FC(8)_RI(4)_SW(32)")
	fmt.Printf("network: %s — %d NPUs across %d dimensions\n\n", net, net.NPUs(), net.NumDims())

	gpt3, err := libra.GPT3(net.NPUs())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s (%.0fB params, %v)\n\n", gpt3.Name, gpt3.Params/1e9, gpt3.Strategy)

	const budget = 500.0 // GB/s per NPU
	problem := libra.NewProblem(net, budget, gpt3)

	equal, err := problem.EqualBW()
	if err != nil {
		log.Fatal(err)
	}
	perf, err := problem.Optimize() // PerfOptBW
	if err != nil {
		log.Fatal(err)
	}
	// The same instance switched to the perf-per-cost objective.
	ppcProblem := libra.NewProblem(net, budget, gpt3)
	ppcProblem.Objective = libra.PerfPerCostOpt
	ppc, err := ppcProblem.Optimize() // PerfPerCostOptBW
	if err != nil {
		log.Fatal(err)
	}

	show := func(name string, r libra.Result) {
		fmt.Printf("%-18s %-36s cost $%6.2fM   iter %.4fs\n", name, r.BW.String(), r.Cost/1e6, r.WeightedTime)
	}
	show("EqualBW", equal)
	show("PerfOptBW", perf)
	show("PerfPerCostOptBW", ppc)

	fmt.Printf("\nPerfOptBW speedup over EqualBW:            %.2fx\n", equal.WeightedTime/perf.WeightedTime)
	fmt.Printf("PerfPerCostOptBW perf-per-cost benefit:    %.2fx\n", ppc.PerfPerCost()/equal.PerfPerCost())
}
