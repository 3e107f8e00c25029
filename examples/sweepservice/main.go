// Service-layer sweep: describe the optimization once as a serializable
// ProblemSpec, then let the Engine fan a topology × budget grid across a
// bounded worker pool with fingerprint-keyed result caching — the
// §VI design-space sweeps as a service workload. A second pass over the
// same grid is answered entirely from cache.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"libra"
)

func main() {
	spec := &libra.ProblemSpec{
		Topology:   "4D-4K",
		Workloads:  []libra.WorkloadSpec{{Preset: "GPT-3"}},
		BudgetGBps: 500,
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spec fingerprint: %s\n\n", fp[:16])

	engine := libra.NewEngine(libra.EngineConfig{Workers: 4, CacheSize: 128})
	defer engine.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	grid := libra.SweepRequest{
		Topologies: []string{"3D-4K", "4D-4K"},
		Budgets:    []float64{300, 500, 1000},
	}
	run := func(label string) {
		start := time.Now()
		points, err := engine.Sweep(ctx, spec, grid)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (%v):\n", label, time.Since(start).Round(time.Millisecond))
		fmt.Printf("  %-8s %10s %14s %10s %8s\n", "network", "GB/s", "iter time (s)", "cost ($M)", "cached")
		for _, pt := range points {
			if pt.Error != "" {
				log.Fatalf("%s @%v: %s", pt.Topology, pt.BudgetGBps, pt.Error)
			}
			fmt.Printf("  %-8s %10.0f %14.6f %10.2f %8v\n",
				pt.Topology, pt.BudgetGBps, pt.Result.WeightedTime, pt.Result.Cost/1e6, pt.Cached)
		}
		fmt.Println()
	}
	run("cold sweep")
	run("warm sweep")

	s := engine.Stats()
	fmt.Printf("engine: %d misses (solved), %d hits (cached), %d entries\n", s.Misses, s.Hits, s.CacheEntries)
}
