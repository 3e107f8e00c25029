// The async job workflow through the client SDK: connect to a
// libra-serve /v2 endpoint, run a quick sanity optimize synchronously,
// then submit a frontier sweep as a background job, stream its progress
// over SSE, and render the finished Pareto frontier. The CI smoke step
// boots a server and runs this end to end.
//
//	libra-serve -addr :8080 &
//	go run ./examples/jobsclient -addr http://localhost:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"libra"
	"libra/client"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "libra-serve base URL")
	wait := flag.Duration("wait", 15*time.Second, "how long to wait for the server to come up")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	c := client.New(*addr)

	// Wait for the server: keep probing until -wait elapses, so a
	// just-started `libra-serve &` has time to bind.
	healthCtx, healthCancel := context.WithTimeout(ctx, *wait)
	defer healthCancel()
	for {
		_, err := c.Health(healthCtx)
		if err == nil {
			break
		}
		select {
		case <-healthCtx.Done():
			log.Fatalf("jobsclient: server at %s not healthy after %v: %v", *addr, *wait, err)
		case <-time.After(200 * time.Millisecond):
		}
	}
	fmt.Printf("connected to %s\n\n", *addr)

	spec := &libra.ProblemSpec{
		Topology:   "RI(4)_SW(8)",
		BudgetGBps: 300,
		Workloads:  []libra.WorkloadSpec{{Preset: "DLRM"}},
	}

	// 1. A synchronous task: POST /v2/tasks answers in-line.
	res, err := c.Do(ctx, libra.NewOptimizeTask(spec))
	if err != nil {
		log.Fatal(err)
	}
	opt, err := res.Engine()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sync optimize:  BW %s, %.6fs per iteration (fingerprint %s...)\n\n",
		opt.Result.BW.String(), opt.Result.WeightedTime, opt.Fingerprint[:12])

	// 2. An asynchronous job: submit the frontier sweep, then stream its
	// ordered status + progress events over SSE until the terminal state.
	job, err := c.Submit(ctx, libra.NewFrontierTask(spec, libra.FrontierRequest{
		BudgetMin: 100, BudgetMax: 400, BudgetSteps: 7,
	}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted job %s (%s)\n", job.ID, job.Kind)

	final, err := c.Watch(ctx, job.ID, func(ev client.Event) {
		switch {
		case ev.Type == "status":
			fmt.Printf("  job %s\n", ev.Status)
		case ev.Progress != nil:
			fmt.Printf("  %s: %d/%d points (%d cache hits)\n",
				ev.Progress.Stage, ev.Progress.Done, ev.Progress.Total, ev.Progress.CacheHits)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	if final.Status != libra.JobDone {
		log.Fatalf("jobsclient: job finished %s: %s", final.Status, final.Error)
	}
	frontier, err := final.TaskResult().Frontier()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-14s %-26s %12s %14s %7s\n", "budget (GB/s)", "BW per dim (GB/s)", "cost ($M)", "iter time (s)", "pareto")
	for _, p := range frontier.Points {
		if p.Error != "" {
			fmt.Printf("%-14.0f error: %s\n", p.BudgetGBps, p.Error)
			continue
		}
		mark := ""
		if p.Pareto {
			mark = "*"
		}
		fmt.Printf("%-14.0f %-26s %12.2f %14.6f %7s\n",
			p.BudgetGBps, p.Result.BW.String(), p.Result.Cost/1e6, p.Result.WeightedTime, mark)
	}
	fmt.Printf("\n%d of %d points Pareto-optimal (%d solves, %d cache hits)\n",
		len(frontier.Frontier), len(frontier.Points), frontier.Solves, frontier.CacheHits)

	// 3. The job listing knows about both of us... well, about the job —
	// the sync task never became one.
	list, err := c.Jobs(ctx, client.ListOptions{Status: libra.JobDone, Limit: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server retains %d done job(s)\n", list.Total)
}
