// Network × parallelization co-design (the paper's §VI-E study): sweep
// MSFT-1T's hybrid-parallel strategy on the 4D-4K fabric through the
// codesign subsystem, co-optimizing the network for each strategy, and
// find the joint optimum. The paper relaxes the NPU-memory constraint for
// this experiment (CXL/CPU-extended memory), so no MemoryGB filter is set;
// add one to see which strategies a real 80 GB device admits.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"libra"
)

func main() {
	spec := &libra.CoDesignSpec{
		Base: libra.ProblemSpec{
			Topology:   "4D-4K",
			BudgetGBps: 1000,
			Workloads:  []libra.WorkloadSpec{{Preset: "MSFT-1T"}},
		},
		// The paper's Fig. 21 sweep; "auto" (nil) would enumerate every
		// divisor of the 4096-NPU count instead.
		TPs: []int{8, 16, 32, 64, 128, 256},
	}
	engine := libra.NewEngine(libra.EngineConfig{})
	defer engine.Close()

	rep, err := libra.CoDesign(context.Background(), engine, spec)
	if err != nil {
		log.Fatal(err)
	}

	// Baseline: the memory-feasible default HP-(128, 32) on EqualBW.
	fmt.Printf("baseline: %s on EqualBW — %.4fs per iteration\n\n",
		rep.Baseline.Strategy, rep.Baseline.EqualBW.WeightedTime)

	fmt.Printf("%-16s %14s %18s %-34s\n", "strategy", "EqualBW spdup", "co-design spdup", "co-designed BW")
	byTP := append([]libra.CoDesignCandidate(nil), rep.Candidates...)
	sort.Slice(byTP, func(i, j int) bool { return byTP[i].Strategy.TP < byTP[j].Strategy.TP })
	for _, c := range byTP {
		if c.Error != "" {
			log.Fatalf("%s: %s", c.Strategy, c.Error)
		}
		fmt.Printf("%-16s %13.2fx %17.2fx %-34s\n",
			c.Strategy, c.EqualBWSpeedupVsBaseline, c.SpeedupVsBaseline, c.Optimized.BW.String())
	}

	best := rep.Best()
	fmt.Printf("\njoint optimum: %s with its co-designed network — %.2fx over the baseline\n",
		best.Strategy, best.SpeedupVsBaseline)
	fmt.Println("(the paper's Fig. 21 finds the same interior-peak shape: mid-range TP wins once the network is co-designed)")
}
