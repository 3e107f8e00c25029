// Chunk-level simulation (the paper's Fig. 9): run a 4-chunk All-Reduce
// over a 3D network under three bandwidth allocations and draw each
// dimension's timeline, showing how a starved dimension bottlenecks the
// pipeline while a traffic-proportional allocation keeps every dimension
// busy. Also contrasts the Themis runtime scheduler on the same inputs.
//
// Scenario construction goes through validate.CollectiveCase — the same
// helper cmd/libra-sim and the conformance matrix use — so every consumer
// prices the analytical bound and the simulators on identical inputs.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"libra"
	"libra/internal/collective"
	"libra/internal/sim"
	"libra/internal/validate"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	net := libra.MustParseTopology("RI(4)_RI(4)_RI(4)")
	const m = 1e9
	const chunks = 4

	tr := collective.Traffic(collective.AllReduce, m, collective.FullMapping(net), 3)
	total := tr[0] + tr[1] + tr[2]
	budget := 300.0
	prop := libra.BWConfig{budget * tr[0] / total, budget * tr[1] / total, budget * tr[2] / total}

	cases := []struct {
		name string
		bw   libra.BWConfig
	}{
		{"(a) starved Dim 1", libra.BWConfig{20, 140, 140}},
		{"(b) starved Dim 2", libra.BWConfig{260, 10, 30}},
		{"(c) traffic-proportional", prop},
	}
	for _, c := range cases {
		cc := validate.CollectiveCase{Net: net, Op: collective.AllReduce, Bytes: m, BW: c.bw, Chunks: chunks}
		var timeline []sim.StageEvent
		r, err := sim.Trace(cc.Op, cc.Bytes, cc.Mapping(), cc.BW, cc.Chunks,
			func(ev sim.StageEvent) { timeline = append(timeline, ev) })
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s   bw=%s   makespan=%.2fms   avg util=%.0f%%\n",
			c.name, c.bw.String(), r.Makespan*1e3, 100*r.AvgUtilization())
		drawTimeline(w, r, timeline)

		th, err := cc.Themis()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  with Themis scheduling: %.2fms (%.2fx)\n\n", th.Makespan*1e3, r.Makespan/th.Makespan)
	}
	return nil
}

// drawTimeline renders each dimension's busy intervals as an ASCII strip.
func drawTimeline(w io.Writer, r sim.PipelineResult, timeline []sim.StageEvent) {
	const width = 72
	for d := 0; d < len(r.DimBusy); d++ {
		strip := []byte(strings.Repeat(".", width))
		for _, ev := range timeline {
			if ev.Dim != d {
				continue
			}
			from := int(ev.Start / r.Makespan * float64(width))
			to := int(ev.End / r.Makespan * float64(width))
			if to >= width {
				to = width - 1
			}
			mark := byte('1' + byte(ev.Chunk%9))
			for i := from; i <= to; i++ {
				strip[i] = mark
			}
		}
		fmt.Fprintf(w, "  dim %d |%s| %.0f%% busy\n", d+1, strip, 100*r.DimUtilization(d))
	}
}
