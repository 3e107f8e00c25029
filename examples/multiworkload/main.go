// Multi-workload design: an AI cluster rarely trains a single model.
// This example designs one 4D-4K network for a weighted family of five
// workloads (the paper's §VI-B group-optimization scenario) and shows
// that the group design is near-optimal for every member while
// single-target designs penalize the others.
package main

import (
	"fmt"
	"log"

	"libra"
)

func main() {
	net, netErr := libra.PresetTopology("4D-4K")
	if netErr != nil {
		log.Fatal(netErr)
	}
	const budget = 1000.0

	names := []string{"Turing-NLG", "GPT-3", "MSFT-1T", "DLRM", "ResNet-50"}
	weights := map[string]float64{
		// Suppose LLM pretraining dominates this cluster's schedule.
		"Turing-NLG": 1, "GPT-3": 3, "MSFT-1T": 5, "DLRM": 2, "ResNet-50": 1,
	}
	var ws []*libra.Workload
	for _, n := range names {
		w, err := libra.WorkloadPreset(n, net.NPUs())
		if err != nil {
			log.Fatal(err)
		}
		ws = append(ws, w)
	}

	// Individually optimized designs.
	own := map[string]libra.Result{}
	for _, w := range ws {
		p := libra.NewProblem(net, budget, w)
		r, err := p.Optimize()
		if err != nil {
			log.Fatal(err)
		}
		own[w.Name] = r
	}

	// One weighted group design.
	group := libra.NewProblem(net, budget)
	for i, n := range names {
		group.AddTarget(ws[i], weights[n])
	}
	rg, err := group.Optimize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("group-optimized 4D-4K allocation: %s\n\n", rg.BW.String())

	fmt.Printf("%-12s %16s %18s %18s\n", "workload", "own-opt iter(s)", "on group net (s)", "slowdown vs own")
	for i, w := range ws {
		ownTime := own[w.Name].Times[0]
		onGroup := rg.Times[i]
		fmt.Printf("%-12s %16.5f %18.5f %17.2fx\n", w.Name, ownTime, onGroup, onGroup/ownTime)
	}

	// Contrast: everything running on the ResNet-50-tuned network.
	fmt.Printf("\ncross-evaluation on the ResNet-50-optimized network:\n")
	pAll := libra.NewProblem(net, budget, ws...)
	rOnResnet, err := pAll.Evaluate(own["ResNet-50"].BW)
	if err != nil {
		log.Fatal(err)
	}
	for i, w := range ws {
		fmt.Printf("  %-12s slowdown %.2fx\n", w.Name, rOnResnet.Times[i]/own[w.Name].Times[0])
	}
}
