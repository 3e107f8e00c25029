// Cost-model sensitivity (the paper's §VI-C study): LIBRA's cost model is
// a user input because component prices shift with technology. This
// example re-optimizes the 4D-4K fabric for MSFT-1T as the inter-Package
// link price sweeps $1–5/GBps and shows how the best design and its
// perf-per-cost benefit move.
package main

import (
	"fmt"
	"log"

	"libra"
	"libra/internal/cost"
)

func main() {
	net, err := libra.PresetTopology("4D-4K")
	if err != nil {
		log.Fatal(err)
	}
	w, err := libra.MSFT1T(net.NPUs())
	if err != nil {
		log.Fatal(err)
	}
	const budget = 1000.0

	fmt.Printf("PerfPerCostOptBW on %s for %s @ %.0f GB/s per NPU\n\n", net.Name(), w.Name, budget)
	fmt.Printf("%-22s %-36s %12s %16s\n", "pkg link ($/GBps)", "optimized BW", "cost ($M)", "ppc vs EqualBW")
	for _, dollars := range []float64{1, 2, 3, 4, 5} {
		p := libra.NewProblem(net, budget, w)
		p.Cost = cost.Default().WithPackageLink(dollars)
		p.Objective = libra.PerfPerCostOpt
		eq, err := p.EqualBW()
		if err != nil {
			log.Fatal(err)
		}
		r, err := p.Optimize()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22.2f %-36s %12.2f %15.2fx\n",
			dollars, r.BW.String(), r.Cost/1e6, r.PerfPerCost()/eq.PerfPerCost())
	}
	fmt.Println("\ncheaper package links pull bandwidth inward; the benefit over EqualBW shrinks as the cheap tier gets pricier")
}
